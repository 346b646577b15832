// Scan-shift power: the packed ScanPowerEvaluator (one observed clock
// cycle per lane) against the scalar shift-cycle oracle, which simulates
// every cycle with the 3-valued Simulator and accumulates it through a
// PowerEstimator. Every ScanPowerResult field must be byte-identical.
//
// Coverage:
//  - the protocol matrix on five benchgen profiles: capture cycles on/off
//    x {1, 3} chains x {identity, shuffled} chain order x initial chain
//    state {0, X} x {traditional, PI control, PI + mux control} x {fully
//    specified, X-carrying} patterns;
//  - s5378 and s9234 at default options with 4 patterns per method;
//  - gates wider than the mapped library (5 to 13 inputs);
//  - the edges: an empty test set, one pattern, no DFFs (zero shift
//    cycles), more chains than cells, every cell multiplexed, and cycle
//    counts around the sweep's lane count (the toggle carry between
//    consecutive sweeps).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "netlist/builder.hpp"
#include "oracle/scan_power_oracle.hpp"
#include "scan/scan_sim.hpp"
#include "techmap/techmap.hpp"
#include "util/rng.hpp"

namespace scanpower {
namespace {

constexpr std::size_t kLanes =
    static_cast<std::size_t>(ScanPowerEvaluator::kBlockWords) * 64;

std::string describe(const ScanPowerResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << "{dyn " << r.dynamic_per_hz_uw << ", static " << r.static_uw
     << ", mean cap " << r.mean_toggled_cap_ff << ", mean leak "
     << r.mean_leakage_na << ", peak dyn " << r.peak_dynamic_per_hz_uw
     << ", peak leak " << r.peak_leakage_na << ", cycles " << r.cycles << "}";
  return os.str();
}

/// Packed vs oracle on one configuration.
struct Checker {
  const Netlist& nl;
  LeakageModel leakage;
  CapacitanceModel caps;
  ScanPowerEvaluator packed{nl, leakage, caps};
  oracle::ScanPowerOracle scalar{nl, leakage, caps};

  explicit Checker(const Netlist& n) : nl(n) {}

  ScanPowerResult check(const TestSet& ts, std::span<const Logic> pi,
                        std::span<const Logic> mux, const ScanSimOptions& so,
                        const std::string& ctx) {
    const ScanPowerResult got = packed.evaluate(ts, pi, mux, so);
    const ScanPowerResult want = scalar.evaluate(ts, pi, mux, so);
    EXPECT_TRUE(oracle::bit_identical(got, want))
        << ctx << "\n packed " << describe(got) << "\n oracle "
        << describe(want);
    return got;
  }
};

TestSet random_tests(const Netlist& nl, std::size_t n, std::uint64_t seed,
                     bool with_x) {
  Rng rng(seed);
  TestSet ts;
  for (std::size_t i = 0; i < n; ++i) {
    TestPattern p = random_pattern(nl, rng);
    if (with_x) {
      for (Logic& v : p.pi) {
        if (rng.next_below(4) == 0) v = Logic::X;
      }
      for (Logic& v : p.ppi) {
        if (rng.next_below(4) == 0) v = Logic::X;
      }
    }
    ts.patterns.push_back(std::move(p));
  }
  return ts;
}

/// Random constants with every `x_every`-th entry left X (0 = none).
std::vector<Logic> random_control(std::size_t n, Rng& rng,
                                  std::size_t x_every) {
  std::vector<Logic> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = x_every != 0 && i % x_every == 0 ? Logic::X
                                            : from_bool(rng.next_bool());
  }
  return v;
}

ScanChainOrder shuffled_order(std::size_t n, std::uint64_t seed) {
  ScanChainOrder o = ScanChainOrder::identity(n);
  Rng rng(seed);
  rng.shuffle(o.order);
  return o;
}

Netlist profile(const char* name) {
  return map_to_nand_nor_inv(make_iscas89_like(name));
}

// ---------- protocol matrix ---------------------------------------------------

class ScanPowerMatrix : public ::testing::TestWithParam<const char*> {};

TEST_P(ScanPowerMatrix, BitIdenticalToOracle) {
  const Netlist nl = profile(GetParam());
  Checker chk(nl);
  Rng rng(0x5ca9);
  const std::vector<Logic> pi_ctl = random_control(nl.inputs().size(), rng, 5);
  const std::vector<Logic> mux_ctl = random_control(nl.dffs().size(), rng, 2);
  const ScanChainOrder shuffled = shuffled_order(nl.dffs().size(), 0x0dd);
  const TestSet kinds[] = {random_tests(nl, 4, 11, false),
                           random_tests(nl, 4, 13, true)};
  struct Method {
    const char* name;
    std::span<const Logic> pi, mux;
  };
  const Method methods[] = {{"traditional", {}, {}},
                            {"pi", pi_ctl, {}},
                            {"pi+mux", pi_ctl, mux_ctl}};
  std::size_t cases = 0;
  for (const bool capture : {false, true}) {
    for (const int chains : {1, 3}) {
      for (const bool shuffle : {false, true}) {
        for (const Logic init : {Logic::Zero, Logic::X}) {
          for (const Method& m : methods) {
            for (int kind = 0; kind < 2; ++kind) {
              ScanSimOptions so;
              so.include_capture_cycles = capture;
              so.num_chains = chains;
              so.chain_order = shuffle ? &shuffled : nullptr;
              so.initial_state = init;
              const std::string ctx =
                  std::string(GetParam()) + " capture=" +
                  std::to_string(capture) + " chains=" +
                  std::to_string(chains) + " shuffled=" +
                  std::to_string(shuffle) + " init=" + logic_char(init) +
                  " " + m.name + (kind ? " x-patterns" : " specified");
              const ScanPowerResult r =
                  chk.check(kinds[kind], m.pi, m.mux, so, ctx);
              EXPECT_GT(r.cycles, 0u) << ctx;
              ++cases;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 96u);
}

INSTANTIATE_TEST_SUITE_P(Profiles, ScanPowerMatrix,
                         ::testing::Values("s344", "s382", "s510", "s1494",
                                           "s1423"));

TEST(ScanPower, LargeProfilesAtDefaultOptions) {
  for (const char* name : {"s5378", "s9234"}) {
    const Netlist nl = profile(name);
    Checker chk(nl);
    Rng rng(0xb16);
    const std::vector<Logic> pi_ctl =
        random_control(nl.inputs().size(), rng, 0);
    const std::vector<Logic> mux_ctl = random_control(nl.dffs().size(), rng, 2);
    const TestSet ts = random_tests(nl, 4, 17, false);
    chk.check(ts, {}, {}, {}, std::string(name) + " traditional");
    chk.check(ts, pi_ctl, {}, {}, std::string(name) + " pi");
    chk.check(ts, pi_ctl, mux_ctl, {}, std::string(name) + " pi+mux");
  }
}

// ---------- edges -------------------------------------------------------------

TEST(ScanPower, EmptyTestSet) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  Checker chk(nl);
  for (const bool capture : {false, true}) {
    ScanSimOptions so;
    so.include_capture_cycles = capture;
    const ScanPowerResult r = chk.check(TestSet{}, {}, {}, so, "empty");
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.dynamic_per_hz_uw, 0.0);
    EXPECT_EQ(r.static_uw, 0.0);
  }
}

TEST(ScanPower, OnePattern) {
  const Netlist nl = profile("s344");
  Checker chk(nl);
  Rng rng(3);
  const std::vector<Logic> mux_ctl = random_control(nl.dffs().size(), rng, 3);
  for (const bool with_x : {false, true}) {
    const TestSet ts = random_tests(nl, 1, 5, with_x);
    for (const bool capture : {false, true}) {
      ScanSimOptions so;
      so.include_capture_cycles = capture;
      so.initial_state = with_x ? Logic::X : Logic::Zero;
      const std::string ctx = "one pattern x=" + std::to_string(with_x) +
                              " capture=" + std::to_string(capture);
      chk.check(ts, {}, {}, so, ctx);
      chk.check(ts, {}, mux_ctl, so, ctx + " mux");
    }
  }
}

TEST(ScanPower, NoDffsMeansNoShiftCycles) {
  NetlistBuilder b("comb");
  b.add_input("a");
  b.add_input("b");
  b.add_input("c");
  b.add_gate(GateType::Nand, "n1", {"a", "b"});
  b.add_gate(GateType::Nor, "n2", {"n1", "c"});
  b.add_gate(GateType::Not, "y", {"n2"});
  b.add_output("y");
  const Netlist nl = b.link();
  ASSERT_TRUE(nl.dffs().empty());
  Checker chk(nl);
  const TestSet ts = random_tests(nl, 7, 19, true);
  const ScanPowerResult shift = chk.check(ts, {}, {}, {}, "no dffs, shift");
  EXPECT_EQ(shift.cycles, 0u);
  ScanSimOptions so;
  so.include_capture_cycles = true;
  const ScanPowerResult cap = chk.check(ts, {}, {}, so, "no dffs, capture");
  EXPECT_EQ(cap.cycles, ts.patterns.size());
}

TEST(ScanPower, MoreChainsThanCells) {
  for (const char* name : {"s27", "s344"}) {
    const Netlist nl = std::string(name) == "s27"
                           ? map_to_nand_nor_inv(make_s27())
                           : profile(name);
    Checker chk(nl);
    const TestSet ts = random_tests(nl, 5, 23, true);
    const ScanChainOrder shuffled = shuffled_order(nl.dffs().size(), 29);
    for (const int extra : {1, 7}) {
      ScanSimOptions so;
      so.num_chains = static_cast<int>(nl.dffs().size()) + extra;
      so.chain_order = &shuffled;
      so.include_capture_cycles = extra == 7;
      const ScanPowerResult r = chk.check(
          ts, {}, {}, so, std::string(name) + " chains=" +
                              std::to_string(so.num_chains));
      EXPECT_EQ(r.cycles,
                ts.patterns.size() * (so.include_capture_cycles ? 2 : 1));
    }
  }
}

TEST(ScanPower, EveryCellMultiplexed) {
  const Netlist nl = profile("s382");
  Checker chk(nl);
  Rng rng(31);
  const std::vector<Logic> pi_ctl = random_control(nl.inputs().size(), rng, 0);
  const std::vector<Logic> mux_ctl = random_control(nl.dffs().size(), rng, 0);
  for (const bool with_x : {false, true}) {
    const TestSet ts = random_tests(nl, 6, 37, with_x);
    for (const bool capture : {false, true}) {
      ScanSimOptions so;
      so.include_capture_cycles = capture;
      so.num_chains = 2;
      const ScanPowerResult r =
          chk.check(ts, pi_ctl, mux_ctl, so,
                    "all muxed x=" + std::to_string(with_x) +
                        " capture=" + std::to_string(capture));
      // Constants everywhere during shift: only capture cycles toggle.
      if (!capture) {
        EXPECT_EQ(r.dynamic_per_hz_uw, 0.0);
      }
    }
  }
}

// One shift cycle per pattern (as many chains as cells), so the cycle
// count is the pattern count: exercise sweeps that end exactly on, and
// one past, the lane count, and a carry across two sweep edges.
TEST(ScanPower, ToggleCarryAcrossSweepEdges) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  Checker chk(nl);
  Rng rng(41);
  const std::vector<Logic> pi_ctl = random_control(nl.inputs().size(), rng, 2);
  for (const std::size_t cycles :
       {kLanes - 1, kLanes, kLanes + 1, 2 * kLanes, 2 * kLanes + 1}) {
    for (const bool with_x : {false, true}) {
      const TestSet ts = random_tests(nl, cycles, 43 + cycles, with_x);
      ScanSimOptions so;
      so.num_chains = static_cast<int>(nl.dffs().size());
      const std::string ctx = "cycles=" + std::to_string(cycles) +
                              " x=" + std::to_string(with_x);
      const ScanPowerResult r = chk.check(ts, {}, {}, so, ctx);
      EXPECT_EQ(r.cycles, cycles) << ctx;
      chk.check(ts, pi_ctl, {}, so, ctx + " pi");
    }
  }
}

// The mapped profiles have no gate wider than 4 inputs. Here 5- and
// 6-input gates read expected tables on X, a 7-input gate (wider than
// GateLeakageTables::kMaxXTableWidth) the analytic expected leakage, and
// a 13-input gate (wider than kMaxTableWidth) the analytic leakage in
// every cycle.
TEST(ScanPower, WideGates) {
  NetlistBuilder b("wide");
  const auto net = [](char c, int i) {
    std::string name(1, c);
    name += std::to_string(i);
    return name;
  };
  std::vector<std::string> srcs;
  for (int i = 0; i < 6; ++i) {
    srcs.push_back(net('i', i));
    b.add_input(srcs.back());
  }
  for (int i = 0; i < 8; ++i) srcs.push_back(net('q', i));
  const auto pick = [&](std::size_t n, std::size_t first) {
    std::vector<std::string> f;
    for (std::size_t j = 0; j < n; ++j) {
      f.push_back(srcs[(first + j) % srcs.size()]);
    }
    return f;
  };
  b.add_gate(GateType::Nand, "w5", pick(5, 0));
  b.add_gate(GateType::Nor, "w6", pick(6, 3));
  b.add_gate(GateType::Nand, "w7", pick(7, 6));
  b.add_gate(GateType::Nor, "w13", pick(13, 1));
  b.add_gate(GateType::Nand, "n1", {"w5", "w6"});
  b.add_gate(GateType::Nor, "n2", {"w7", "w13", "n1"});
  b.add_gate(GateType::Not, "n3", {"n2"});
  const char* const d_pins[] = {"w5", "w6", "w7", "w13", "n1", "n2", "n3", "q0"};
  for (int i = 0; i < 8; ++i) {
    b.add_gate(GateType::Dff, net('q', i), {d_pins[i]});
  }
  b.add_output("n3");
  b.add_output("w13");
  const Netlist nl = b.link();
  Checker chk(nl);
  Rng rng(47);
  const std::vector<Logic> pi_ctl = random_control(nl.inputs().size(), rng, 3);
  const std::vector<Logic> mux_ctl = random_control(nl.dffs().size(), rng, 2);
  for (const bool with_x : {false, true}) {
    const TestSet ts = random_tests(nl, 40, 53, with_x);
    for (const bool capture : {false, true}) {
      for (const int chains : {1, 3}) {
        ScanSimOptions so;
        so.include_capture_cycles = capture;
        so.num_chains = chains;
        so.initial_state = with_x ? Logic::X : Logic::Zero;
        const std::string ctx = "wide x=" + std::to_string(with_x) +
                                " capture=" + std::to_string(capture) +
                                " chains=" + std::to_string(chains);
        chk.check(ts, {}, {}, so, ctx);
        chk.check(ts, pi_ctl, {}, so, ctx + " pi");
        chk.check(ts, pi_ctl, mux_ctl, so, ctx + " pi+mux");
      }
    }
  }
}

}  // namespace
}  // namespace scanpower
