// Tests for the auxiliary I/O paths: test-set files, VCD dumps and the
// scalar scan-power oracle's per-cycle observer hook.

#include <gtest/gtest.h>

#include <sstream>

#include "atpg/pattern.hpp"
#include "atpg/tpg.hpp"
#include "benchgen/benchgen.hpp"
#include "oracle/scan_power_oracle.hpp"
#include "scan/scan_sim.hpp"
#include "sim/vcd.hpp"
#include "techmap/techmap.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace scanpower {
namespace {

TEST(TestSetIo, RoundTrip) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const TestSet ts = generate_tests(nl);
  std::ostringstream out;
  save_test_set(out, ts);
  std::istringstream in(out.str());
  const TestSet back = load_test_set(in);
  EXPECT_EQ(back.seed, ts.seed);
  EXPECT_EQ(back.total_faults, ts.total_faults);
  EXPECT_EQ(back.detected_faults, ts.detected_faults);
  EXPECT_EQ(back.untestable_faults, ts.untestable_faults);
  ASSERT_EQ(back.patterns.size(), ts.patterns.size());
  for (std::size_t i = 0; i < ts.patterns.size(); ++i) {
    EXPECT_EQ(back.patterns[i].to_string(), ts.patterns[i].to_string());
  }
}

TEST(TestSetIo, PreservesDontCares) {
  std::istringstream in("# c\nseed 7\nstats 10 8 1 1\n01x|1x0\nx11|001\n");
  const TestSet ts = load_test_set(in);
  ASSERT_EQ(ts.patterns.size(), 2u);
  EXPECT_EQ(ts.patterns[0].pi[2], Logic::X);
  EXPECT_EQ(ts.patterns[1].ppi[2], Logic::One);
  EXPECT_EQ(ts.seed, 7u);
}

TEST(TestSetIo, RejectsInconsistentWidths) {
  std::istringstream in("01|10\n011|10\n");
  EXPECT_THROW(load_test_set(in), Error);
}

TEST(TestSetIo, RejectsMalformedStats) {
  std::istringstream in("stats 1 2\n");
  EXPECT_THROW(load_test_set(in), Error);
}

TEST(Vcd, HeaderAndChangesWritten) {
  const Netlist nl = make_s27();
  std::ostringstream out;
  VcdWriter vcd(out, nl, "s27");
  std::vector<Logic> v0(nl.num_gates(), Logic::Zero);
  std::vector<Logic> v1 = v0;
  v1[nl.inputs()[0]] = Logic::One;
  vcd.sample(0, v0);
  const std::size_t after_first = vcd.changes_written();
  vcd.sample(1, v1);
  EXPECT_EQ(vcd.changes_written(), after_first + 1);  // one signal changed
  const std::string text = out.str();
  EXPECT_NE(text.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(text.find("$dumpvars"), std::string::npos);
  EXPECT_NE(text.find("#1"), std::string::npos);
  // Every net declared.
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    EXPECT_NE(text.find(" " + nl.gate_name(id) + " $end"), std::string::npos);
  }
}

TEST(Vcd, NoTimestepWhenNothingChanges) {
  const Netlist nl = make_s27();
  std::ostringstream out;
  VcdWriter vcd(out, nl, "s27");
  std::vector<Logic> v(nl.num_gates(), Logic::X);
  vcd.sample(0, v);
  vcd.sample(1, v);  // identical: no #1 section
  EXPECT_EQ(out.str().find("#1"), std::string::npos);
}

TEST(Vcd, SignalSubsetRespected) {
  const Netlist nl = make_s27();
  std::ostringstream out;
  VcdWriter vcd(out, nl, "s27", {nl.inputs()[0], nl.dffs()[0]});
  std::vector<Logic> v(nl.num_gates(), Logic::Zero);
  vcd.sample(0, v);
  EXPECT_EQ(vcd.changes_written(), 2u);
}

TEST(CycleObserver, CalledOncePerObservedCycle) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const LeakageModel leak;
  const CapacitanceModel caps;
  Rng rng(99);
  TestSet ts;
  for (int i = 0; i < 3; ++i) ts.patterns.push_back(random_pattern(nl, rng));
  oracle::ScanPowerOracle eval(nl, leak, caps);
  std::size_t calls = 0;
  std::size_t last_cycle = 0;
  const oracle::CycleObserver observer = [&](std::size_t cycle,
                                             std::span<const Logic> values) {
    EXPECT_EQ(values.size(), nl.num_gates());
    last_cycle = cycle;
    ++calls;
  };
  const ScanPowerResult r = eval.evaluate(ts, {}, {}, {}, observer);
  EXPECT_EQ(calls, r.cycles);
  EXPECT_EQ(last_cycle + 1, r.cycles);
}

TEST(CycleObserver, DrivesVcdDump) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const LeakageModel leak;
  const CapacitanceModel caps;
  Rng rng(101);
  TestSet ts;
  for (int i = 0; i < 2; ++i) ts.patterns.push_back(random_pattern(nl, rng));
  std::ostringstream out;
  VcdWriter vcd(out, nl, "scan");
  const oracle::CycleObserver observer = [&](std::size_t cycle,
                                             std::span<const Logic> values) {
    vcd.sample(cycle, values);
  };
  oracle::ScanPowerOracle eval(nl, leak, caps);
  eval.evaluate(ts, {}, {}, {}, observer);
  EXPECT_GT(vcd.changes_written(), nl.num_gates());  // initial dump + activity
  EXPECT_NE(out.str().find("$dumpvars"), std::string::npos);
}

}  // namespace
}  // namespace scanpower
