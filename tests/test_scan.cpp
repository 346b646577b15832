#include <gtest/gtest.h>

#include "util/assert.hpp"
#include "atpg/tpg.hpp"
#include "benchgen/benchgen.hpp"
#include "netlist/builder.hpp"
#include "scan/add_mux.hpp"
#include "scan/scan_sim.hpp"
#include "sim/simulator.hpp"
#include "techmap/techmap.hpp"
#include "timing/sta.hpp"
#include "util/rng.hpp"

namespace scanpower {
namespace {

// ---------- AddMUX ----------------------------------------------------------

TEST(AddMux, PlanOnlyMarksSlackyCells) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const DelayModel model;
  const MuxPlan plan = plan_muxes(nl, model);
  const TimingAnalysis sta(nl, model);
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    const GateId dff = nl.dffs()[i];
    if (nl.fanouts(dff).empty()) {
      EXPECT_FALSE(plan.multiplexed[i]);
      continue;
    }
    const double d_mux = model.mux_delay_ps(model.caps().load_ff(nl, dff));
    const bool fits = d_mux <= sta.slack_ps(dff) + 1e-6;
    EXPECT_EQ(plan.multiplexed[i], fits) << nl.gate_name(dff);
  }
}

TEST(AddMux, SlackMarginReducesCoverage) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s641"));
  const DelayModel model;
  MuxPlanOptions loose;
  MuxPlanOptions tight;
  tight.slack_margin_ps = 100.0;
  const MuxPlan p1 = plan_muxes(nl, model, loose);
  const MuxPlan p2 = plan_muxes(nl, model, tight);
  EXPECT_LE(p2.num_multiplexed, p1.num_multiplexed);
  // Monotonicity: every cell muxed under the tight margin is also muxed
  // under the loose one.
  for (std::size_t i = 0; i < p1.multiplexed.size(); ++i) {
    if (p2.multiplexed[i]) {
      EXPECT_TRUE(p1.multiplexed[i]);
    }
  }
}

TEST(AddMux, PhysicalInsertionKeepsCriticalDelay) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s382"));
  const DelayModel model;
  const MuxPlan plan = plan_muxes(nl, model);
  ASSERT_GT(plan.num_multiplexed, 0u);
  std::vector<Logic> mux_values(nl.dffs().size(), Logic::X);
  for (std::size_t i = 0; i < plan.multiplexed.size(); ++i) {
    if (plan.multiplexed[i]) mux_values[i] = Logic::Zero;
  }
  const Netlist muxed = insert_muxes_physically(nl, plan, mux_values);
  const TimingAnalysis before(nl, model);
  const TimingAnalysis after(muxed, model);
  EXPECT_NEAR(after.critical_delay_ps(), before.critical_delay_ps(), 1e-6);
}

TEST(AddMux, PhysicalInsertionNormalModeTransparent) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const DelayModel model;
  const MuxPlan plan = plan_muxes(nl, model);
  std::vector<Logic> mux_values(nl.dffs().size(), Logic::X);
  for (std::size_t i = 0; i < plan.multiplexed.size(); ++i) {
    if (plan.multiplexed[i]) mux_values[i] = Logic::One;
  }
  GateId se = kInvalidGate;
  const Netlist muxed = insert_muxes_physically(nl, plan, mux_values, &se);
  ASSERT_NE(se, kInvalidGate);

  Simulator orig(nl);
  Simulator mod(muxed);
  Rng rng(61);
  for (int v = 0; v < 64; ++v) {
    mod.set_input(se, Logic::Zero);  // normal mode
    for (GateId pi : nl.inputs()) {
      const Logic val = from_bool(rng.next_bool());
      orig.set_input(pi, val);
      mod.set_input(muxed.find(nl.gate_name(pi)), val);
    }
    for (GateId ff : nl.dffs()) {
      const Logic val = from_bool(rng.next_bool());
      orig.set_state(ff, val);
      mod.set_state(muxed.find(nl.gate_name(ff)), val);
    }
    orig.eval_incremental();
    mod.eval_incremental();
    for (GateId po : nl.outputs()) {
      ASSERT_EQ(orig.value(po), mod.value(muxed.find(nl.gate_name(po))));
    }
    for (GateId ff : nl.dffs()) {
      ASSERT_EQ(orig.next_state(ff),
                mod.next_state(muxed.find(nl.gate_name(ff))));
    }
  }
}

TEST(AddMux, ScanModePresentsConstants) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const DelayModel model;
  const MuxPlan plan = plan_muxes(nl, model);
  ASSERT_GT(plan.num_multiplexed, 0u);
  std::vector<Logic> mux_values(nl.dffs().size(), Logic::X);
  bool flip = false;
  for (std::size_t i = 0; i < plan.multiplexed.size(); ++i) {
    if (plan.multiplexed[i]) {
      mux_values[i] = flip ? Logic::One : Logic::Zero;
      flip = !flip;
    }
  }
  GateId se = kInvalidGate;
  const Netlist muxed = insert_muxes_physically(nl, plan, mux_values, &se);
  Simulator mod(muxed);
  mod.set_input(se, Logic::One);  // scan mode
  Rng rng(63);
  for (GateId pi : nl.inputs()) {
    mod.set_input(muxed.find(nl.gate_name(pi)), from_bool(rng.next_bool()));
  }
  for (GateId ff : nl.dffs()) {
    mod.set_state(muxed.find(nl.gate_name(ff)), from_bool(rng.next_bool()));
  }
  mod.eval();
  for (std::size_t i = 0; i < plan.multiplexed.size(); ++i) {
    if (!plan.multiplexed[i]) continue;
    const GateId mux = muxed.find("mux$" + nl.gate_name(nl.dffs()[i]));
    ASSERT_NE(mux, kInvalidGate);
    EXPECT_EQ(mod.value(mux), mux_values[i]);
  }
}

TEST(AddMux, InsertRejectsMissingConstants) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const DelayModel model;
  const MuxPlan plan = plan_muxes(nl, model);
  ASSERT_GT(plan.num_multiplexed, 0u);
  std::vector<Logic> mux_values(nl.dffs().size(), Logic::X);  // all missing
  EXPECT_THROW(insert_muxes_physically(nl, plan, mux_values), Error);
}

// ---------- scan shift simulation ---------------------------------------------

TEST(ScanSim, ChainEndsWithShiftedPattern) {
  // Verify the shift indexing: after L cycles, chain[k] == ppi[k]. We
  // check it indirectly: with include_capture_cycles the capture cycle
  // applies exactly (test.pi, test.ppi), so next-states must match a
  // direct functional simulation.
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  Rng rng(71);
  TestSet ts;
  for (int i = 0; i < 4; ++i) ts.patterns.push_back(random_pattern(nl, rng));

  // Replay the protocol manually and track the applied states.
  std::vector<Logic> chain(nl.dffs().size(), Logic::Zero);
  Simulator ref(nl);
  for (const TestPattern& t : ts.patterns) {
    for (std::size_t k = 0; k < nl.dffs().size(); ++k) {
      // Simulate L shift cycles of the chain registers only.
      for (std::size_t c = chain.size(); c-- > 1;) chain[c] = chain[c - 1];
      chain[0] = t.ppi[chain.size() - 1 - k];
    }
    for (std::size_t c = 0; c < chain.size(); ++c) {
      EXPECT_EQ(chain[c], t.ppi[c]) << "position " << c;
    }
    // Capture.
    ref.set_inputs(t.pi);
    ref.set_states(chain);
    ref.eval_incremental();
    for (std::size_t c = 0; c < chain.size(); ++c) {
      chain[c] = ref.next_state(nl.dffs()[c]);
    }
  }
}

TEST(ScanSim, CycleCountMatchesProtocol) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const LeakageModel leak;
  const CapacitanceModel caps;
  Rng rng(73);
  TestSet ts;
  for (int i = 0; i < 5; ++i) ts.patterns.push_back(random_pattern(nl, rng));
  ScanPowerEvaluator eval(nl, leak, caps);
  ScanSimOptions shift_only;
  shift_only.include_capture_cycles = false;
  const ScanPowerResult a = eval.evaluate(ts, {}, {}, shift_only);
  EXPECT_EQ(a.cycles, ts.patterns.size() * nl.dffs().size());
  ScanSimOptions with_capture;
  with_capture.include_capture_cycles = true;
  const ScanPowerResult b = eval.evaluate(ts, {}, {}, with_capture);
  EXPECT_EQ(b.cycles, ts.patterns.size() * (nl.dffs().size() + 1));
}

TEST(ScanSim, MuxControlSuppressesPseudoInputToggles) {
  // With *every* cell multiplexed and all PIs controlled, the logic sees
  // constants during shift: zero dynamic power.
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const LeakageModel leak;
  const CapacitanceModel caps;
  Rng rng(79);
  TestSet ts;
  for (int i = 0; i < 6; ++i) ts.patterns.push_back(random_pattern(nl, rng));
  ScanPowerEvaluator eval(nl, leak, caps);
  std::vector<Logic> pi_ctl(nl.inputs().size(), Logic::Zero);
  std::vector<Logic> mux_ctl(nl.dffs().size(), Logic::One);
  const ScanPowerResult r = eval.evaluate(ts, pi_ctl, mux_ctl);
  EXPECT_DOUBLE_EQ(r.dynamic_per_hz_uw, 0.0);
  EXPECT_GT(r.static_uw, 0.0);
}

TEST(ScanSim, TraditionalHasPositiveDynamicPower) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const LeakageModel leak;
  const CapacitanceModel caps;
  Rng rng(83);
  TestSet ts;
  for (int i = 0; i < 6; ++i) ts.patterns.push_back(random_pattern(nl, rng));
  ScanPowerEvaluator eval(nl, leak, caps);
  const ScanPowerResult r = eval.evaluate(ts);
  EXPECT_GT(r.dynamic_per_hz_uw, 0.0);
  EXPECT_GT(r.static_uw, 0.0);
}

TEST(ScanSim, DeterministicAcrossRuns) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s382"));
  const LeakageModel leak;
  const CapacitanceModel caps;
  const TestSet ts = generate_tests(nl);
  ScanPowerEvaluator eval(nl, leak, caps);
  const ScanPowerResult a = eval.evaluate(ts);
  const ScanPowerResult b = eval.evaluate(ts);
  EXPECT_DOUBLE_EQ(a.dynamic_per_hz_uw, b.dynamic_per_hz_uw);
  EXPECT_DOUBLE_EQ(a.static_uw, b.static_uw);
}

TEST(ScanSim, PatternSizeMismatchRejected) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const LeakageModel leak;
  const CapacitanceModel caps;
  ScanPowerEvaluator eval(nl, leak, caps);
  TestSet ts;
  TestPattern bad;
  bad.pi.assign(1, Logic::Zero);  // wrong size
  bad.ppi.assign(nl.dffs().size(), Logic::Zero);
  ts.patterns.push_back(bad);
  EXPECT_THROW(eval.evaluate(ts), Error);
}

}  // namespace
}  // namespace scanpower
