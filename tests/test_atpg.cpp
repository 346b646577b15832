#include <gtest/gtest.h>

#include <set>

#include "../bench/bench_common.hpp"
#include "util/assert.hpp"
#include "atpg/constant_lines.hpp"
#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/packed_sim.hpp"
#include "atpg/pattern.hpp"
#include "atpg/podem.hpp"
#include "atpg/tpg.hpp"
#include "benchgen/benchgen.hpp"
#include "netlist/builder.hpp"
#include "netlist/stats.hpp"
#include "oracle/podem_oracle.hpp"
#include "sim/simulator.hpp"
#include "techmap/techmap.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace scanpower {
namespace {

// ---------- fault model -----------------------------------------------------

TEST(Faults, EnumerationCoversOutputsAndPins) {
  NetlistBuilder b("f");
  b.add_input("a");
  b.add_input("c");
  b.add_gate(GateType::Nand, "g", {"a", "c"});
  b.add_output("g");
  const Netlist nl = b.link();
  const auto faults = enumerate_faults(nl);
  // Stems: a, c, g (2 each) + pins: g.in0, g.in1 (2 each) = 10.
  EXPECT_EQ(faults.size(), 10u);
}

TEST(Faults, CollapsingDropsEquivalents) {
  NetlistBuilder b("f");
  b.add_input("a");
  b.add_input("c");
  b.add_gate(GateType::Nand, "g", {"a", "c"});
  b.add_output("g");
  const Netlist nl = b.link();
  const auto collapsed = collapse_faults(nl);
  // Fanout-free NAND: every pin fault collapses (sa0 onto output, sa1 onto
  // the driver stem): only the 6 stem faults remain.
  EXPECT_EQ(collapsed.size(), 6u);
}

TEST(Faults, BranchPinsKeptAfterFanout) {
  NetlistBuilder b("f");
  b.add_input("a");
  b.add_input("c");
  b.add_gate(GateType::Nand, "g1", {"a", "c"});
  b.add_gate(GateType::Nand, "g2", {"a", "g1"});
  b.add_output("g1");
  b.add_output("g2");
  const Netlist nl = b.link();
  const auto collapsed = collapse_faults(nl);
  // "a" branches (feeds g1 and g2): its non-controlling (sa1) branch
  // faults must be distinct.
  int a_pin_faults = 0;
  for (const Fault& f : collapsed) {
    if (f.pin >= 0 && nl.fanins(f.gate)[static_cast<std::size_t>(f.pin)] ==
                          nl.find("a")) {
      ++a_pin_faults;
      EXPECT_TRUE(f.stuck_at);  // sa0 collapsed onto output faults
    }
  }
  EXPECT_EQ(a_pin_faults, 2);
}

TEST(Faults, ToStringIsReadable) {
  const Netlist nl = make_s27();
  const Fault f1{nl.find("G10"), -1, true};
  EXPECT_EQ(f1.to_string(nl), "G10/sa1");
  const Fault f2{nl.find("G10"), 0, false};
  EXPECT_EQ(f2.to_string(nl), "G10.in0/sa0");
}

// ---------- packed simulation -----------------------------------------------

TEST(PackedSim, MatchesScalarSimulator) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  BlockSimulator packed(nl, 1);
  Simulator scalar(nl);
  Rng rng(77);
  // 64 random patterns in one word.
  std::vector<TestPattern> pats;
  for (int i = 0; i < 64; ++i) pats.push_back(random_pattern(nl, rng));
  for (std::size_t k = 0; k < nl.inputs().size(); ++k) {
    PatternWord w = 0;
    for (int j = 0; j < 64; ++j) {
      if (pats[j].pi[k] == Logic::One) w |= PatternWord{1} << j;
    }
    packed.set_source_word(nl.inputs()[k], 0, w);
  }
  for (std::size_t k = 0; k < nl.dffs().size(); ++k) {
    PatternWord w = 0;
    for (int j = 0; j < 64; ++j) {
      if (pats[j].ppi[k] == Logic::One) w |= PatternWord{1} << j;
    }
    packed.set_source_word(nl.dffs()[k], 0, w);
  }
  packed.eval();
  for (int j : {0, 1, 17, 63}) {
    scalar.set_inputs(pats[j].pi);
    scalar.set_states(pats[j].ppi);
    scalar.eval_incremental();
    for (GateId id = 0; id < nl.num_gates(); ++id) {
      const bool packed_bit = (packed.word(id, 0) >> j) & 1;
      ASSERT_EQ(from_bool(packed_bit), scalar.value(id))
          << nl.gate_name(id) << " lane " << j;
    }
  }
}

// ---------- fault simulation against brute force ------------------------------

/// Brute-force detection check: does `pattern` detect `fault`?
bool detects(const Netlist& nl, const TestPattern& pattern, const Fault& f) {
  Simulator good(nl);
  good.set_inputs(pattern.pi);
  good.set_states(pattern.ppi);
  good.eval();
  // Faulty copy: evaluate by hand with the fault forced.
  std::vector<Logic> fv(nl.num_gates(), Logic::X);
  for (GateId pi : nl.inputs()) fv[pi] = good.value(pi);
  for (GateId ff : nl.dffs()) fv[ff] = good.value(ff);
  if (f.pin < 0 && !is_combinational(nl.type(f.gate))) {
    fv[f.gate] = from_bool(f.stuck_at);
  }
  std::vector<Logic> ins;
  for (GateId id : nl.topo_order()) {
    ins.clear();
    const auto& fans = nl.fanins(id);
    for (std::size_t p = 0; p < fans.size(); ++p) {
      Logic v = fv[fans[p]];
      if (id == f.gate && static_cast<int>(p) == f.pin) {
        v = from_bool(f.stuck_at);
      }
      ins.push_back(v);
    }
    fv[id] = eval_gate(nl.type(id), ins);
    if (f.pin < 0 && id == f.gate) fv[id] = from_bool(f.stuck_at);
  }
  if (f.pin >= 0 && nl.type(f.gate) == GateType::Dff) {
    return good.value(nl.fanins(f.gate)[0]) != from_bool(f.stuck_at);
  }
  for (GateId po : nl.outputs()) {
    if (good.value(po) != fv[po]) return true;
  }
  for (GateId dff : nl.dffs()) {
    const GateId d = nl.fanins(dff)[0];
    if (good.value(d) != fv[d]) return true;
  }
  return false;
}

TEST(FaultSim, AgreesWithBruteForceOnS27) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto faults = collapse_faults(nl);
  Rng rng(31);
  std::vector<TestPattern> pats;
  for (int i = 0; i < 20; ++i) pats.push_back(random_pattern(nl, rng));

  FaultSimulator fsim(nl);
  const FaultSimResult res = fsim.run(pats, faults);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    bool brute = false;
    for (const TestPattern& p : pats) {
      if (detects(nl, p, faults[fi])) {
        brute = true;
        break;
      }
    }
    EXPECT_EQ(res.detected[fi], brute) << faults[fi].to_string(nl);
  }
}

TEST(FaultSim, FirstDetectingPatternIsCorrect) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto faults = collapse_faults(nl);
  Rng rng(33);
  std::vector<TestPattern> pats;
  for (int i = 0; i < 10; ++i) pats.push_back(random_pattern(nl, rng));
  FaultSimulator fsim(nl);
  const FaultSimResult res = fsim.run(pats, faults);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (!res.detected[fi]) continue;
    const std::size_t first = res.detecting_pattern[fi];
    EXPECT_TRUE(detects(nl, pats[first], faults[fi]));
    for (std::size_t p = 0; p < first; ++p) {
      EXPECT_FALSE(detects(nl, pats[p], faults[fi]))
          << faults[fi].to_string(nl) << " pattern " << p;
    }
  }
}

TEST(FaultSim, InitialDetectedSkipsFaults) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto faults = collapse_faults(nl);
  Rng rng(35);
  std::vector<TestPattern> pats;
  for (int i = 0; i < 8; ++i) pats.push_back(random_pattern(nl, rng));
  FaultSimulator fsim(nl);
  std::vector<bool> already(faults.size(), true);
  const FaultSimResult res = fsim.run(pats, faults, &already);
  EXPECT_EQ(res.num_detected, 0u);
}

TEST(FaultSim, RejectsXPatterns) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto faults = collapse_faults(nl);
  TestPattern p;
  p.pi.assign(nl.inputs().size(), Logic::X);
  p.ppi.assign(nl.dffs().size(), Logic::Zero);
  FaultSimulator fsim(nl);
  EXPECT_THROW(fsim.run(std::span<const TestPattern>(&p, 1), faults), Error);
}

// ---------- PODEM ------------------------------------------------------------

TEST(Podem, GeneratedPatternsActuallyDetect) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto faults = collapse_faults(nl);
  Podem podem(nl);
  Rng rng(41);
  int detected_count = 0;
  for (const Fault& f : faults) {
    const PodemResult r = podem.generate(f);
    ASSERT_NE(r.status, PodemStatus::Aborted) << f.to_string(nl);
    if (r.status != PodemStatus::Detected) continue;
    ++detected_count;
    TestPattern p = r.pattern;
    p.random_fill(rng);
    EXPECT_TRUE(detects(nl, p, f)) << f.to_string(nl);
  }
  EXPECT_GT(detected_count, 0);
}

TEST(Podem, UntestableClaimsVerifiedExhaustively) {
  // Redundant circuit: y = OR(a, NOT(a)) == 1, so y/sa1 is untestable.
  NetlistBuilder b("red");
  b.add_input("a");
  b.add_gate(GateType::Not, "n", {"a"});
  b.add_gate(GateType::Or, "y", {"a", "n"});
  b.add_output("y");
  const Netlist nl = b.link();
  Podem podem(nl);
  const PodemResult r1 = podem.generate({nl.find("y"), -1, true});
  EXPECT_EQ(r1.status, PodemStatus::Untestable);
  const PodemResult r0 = podem.generate({nl.find("y"), -1, false});
  EXPECT_EQ(r0.status, PodemStatus::Detected);
}

TEST(Podem, UntestableAgreesWithExhaustiveOnS27) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const auto faults = collapse_faults(nl);
  Podem podem(nl);
  // Exhaustive: 2^7 source assignments.
  const std::size_t n_src = nl.inputs().size() + nl.dffs().size();
  ASSERT_LE(n_src, 16u);
  for (const Fault& f : faults) {
    const PodemResult r = podem.generate(f);
    bool exists = false;
    for (unsigned v = 0; v < (1u << n_src) && !exists; ++v) {
      TestPattern p;
      unsigned bit = 0;
      for (std::size_t k = 0; k < nl.inputs().size(); ++k) {
        p.pi.push_back(from_bool((v >> bit++) & 1));
      }
      for (std::size_t k = 0; k < nl.dffs().size(); ++k) {
        p.ppi.push_back(from_bool((v >> bit++) & 1));
      }
      exists = detects(nl, p, f);
    }
    if (r.status == PodemStatus::Detected) {
      EXPECT_TRUE(exists) << f.to_string(nl);
    } else if (r.status == PodemStatus::Untestable) {
      EXPECT_FALSE(exists) << f.to_string(nl);
    }
  }
}

TEST(Podem, DffPinFaultHandled) {
  const Netlist nl = make_s27();
  // Find a DFF pin fault in the collapsed list, if any; otherwise build
  // one directly on G5 (its D driver G10 may or may not branch).
  const Fault f{nl.dffs()[0], 0, false};
  Podem podem(nl);
  const PodemResult r = podem.generate(f);
  EXPECT_NE(r.status, PodemStatus::Aborted);
  if (r.status == PodemStatus::Detected) {
    Rng rng(43);
    TestPattern p = r.pattern;
    p.random_fill(rng);
    EXPECT_TRUE(detects(nl, p, f));
  }
}

// ---------- pattern utilities -------------------------------------------------

TEST(Patterns, RoundTripString) {
  TestPattern p;
  p.pi = logic_vector("01x");
  p.ppi = logic_vector("1x0");
  const TestPattern q = TestPattern::from_string(p.to_string());
  EXPECT_EQ(q.pi, p.pi);
  EXPECT_EQ(q.ppi, p.ppi);
}

TEST(Patterns, RandomFillRemovesX) {
  TestPattern p;
  p.pi = logic_vector("x0x");
  p.ppi = logic_vector("xx");
  Rng rng(51);
  p.random_fill(rng);
  EXPECT_TRUE(p.fully_specified());
  EXPECT_EQ(p.pi[1], Logic::Zero);  // assigned bits untouched
}

// ---------- end-to-end TPG ------------------------------------------------------

TEST(Tpg, S27FullEfficiency) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const TestSet ts = generate_tests(nl);
  EXPECT_GT(ts.patterns.size(), 0u);
  EXPECT_EQ(ts.aborted_faults, 0u);
  // Every testable fault detected.
  EXPECT_EQ(ts.detected_faults + ts.untestable_faults, ts.total_faults);
  for (const TestPattern& p : ts.patterns) {
    EXPECT_TRUE(p.fully_specified());
  }
}

TEST(Tpg, DeterministicForFixedSeed) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const TestSet a = generate_tests(nl);
  const TestSet b = generate_tests(nl);
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  for (std::size_t i = 0; i < a.patterns.size(); ++i) {
    EXPECT_EQ(a.patterns[i].to_string(), b.patterns[i].to_string());
  }
}

TEST(Tpg, CompactionDoesNotLoseCoverage) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  TpgOptions with;
  with.compact = true;
  TpgOptions without;
  without.compact = false;
  const TestSet a = generate_tests(nl, with);
  const TestSet b = generate_tests(nl, without);
  EXPECT_EQ(a.detected_faults, b.detected_faults);
  EXPECT_LE(a.patterns.size(), b.patterns.size());
}

TEST(Tpg, CoverageMatchesIndependentFaultSim) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  const TestSet ts = generate_tests(nl);
  const double cov = fault_coverage(nl, ts.patterns);
  EXPECT_NEAR(cov, ts.fault_coverage(), 1e-12);
}

}  // namespace
}  // namespace scanpower

namespace scanpower {
namespace {

TEST(Faults, XorKeepsPinFaults) {
  NetlistBuilder b("x");
  b.add_input("a");
  b.add_input("c");
  b.add_gate(GateType::Not, "n", {"a"});   // make 'a' branch
  b.add_gate(GateType::Xor, "y", {"a", "c"});
  b.add_output("y");
  b.add_output("n");
  const Netlist nl = b.link();
  const auto collapsed = collapse_faults(nl);
  int xor_pin_faults = 0;
  for (const Fault& f : collapsed) {
    if (f.gate == nl.find("y") && f.pin == 0) ++xor_pin_faults;
  }
  // 'a' branches (feeds n and y): XOR has no controlling value, so both
  // polarities of the branch fault survive collapsing.
  EXPECT_EQ(xor_pin_faults, 2);
}

TEST(Podem, BacktrackCountReported) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto faults = collapse_faults(nl);
  Podem podem(nl);
  int total_backtracks = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(50, faults.size()); ++i) {
    total_backtracks += podem.generate(faults[i]).backtracks;
  }
  EXPECT_GE(total_backtracks, 0);
}

TEST(Podem, AbortsUnderTinyBacktrackLimit) {
  // With limit 0, hard faults must abort rather than loop forever; easy
  // faults (justifiable without any conflict) may still be detected.
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s382"));
  const auto faults = collapse_faults(nl);
  PodemOptions opts;
  opts.backtrack_limit = 0;
  Podem podem(nl, opts);
  for (std::size_t i = 0; i < std::min<std::size_t>(100, faults.size()); ++i) {
    const PodemResult r = podem.generate(faults[i]);
    EXPECT_EQ(r.backtracks, 0);
    // Untestable with 0 backtracks is impossible to *prove* unless the
    // fault site is structurally dead; Detected and Aborted are the
    // expected outcomes.
    if (r.status == PodemStatus::Detected) {
      EXPECT_FALSE(r.pattern.pi.empty() && r.pattern.ppi.empty());
    }
  }
}

TEST(Tpg, WorksOnUnmappedCircuits) {
  // The ATPG does not require the NAND/NOR/INV mapping.
  const Netlist nl = make_s27();
  const TestSet ts = generate_tests(nl);
  EXPECT_GT(ts.fault_coverage(), 0.9);
  EXPECT_EQ(ts.aborted_faults, 0u);
}

}  // namespace
}  // namespace scanpower

// ---------- golden hashes -------------------------------------------------------
//
// The implication core behind PODEM and Justify must never change a
// decision: every per-fault PodemResult, every generated TestSet and every
// FindControlledInputPattern result stays byte-identical to the engine
// that re-simulated the whole netlist after each decision. The hashes
// below were recorded with that full-resimulation engine, except where
// PODEM's pruning moved them on purpose. The X-path check, and later its
// fault-site form and the learned constant lines, lower backtrack counts
// and resolve faults the search used to abort, so the per-fault PODEM
// hashes of s344 and up were re-recorded with them, and the s510 TestSet
// (aborted 4 -> 0, untestable 548 -> 552, same patterns) with the first.
// PodemOracleRelation pins what the pruning may change.

namespace scanpower {
namespace {

/// FNV-1a over a stream of fields.
struct GoldenHasher {
  std::uint64_t h = 14695981039346656037ULL;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

Netlist golden_circuit(const std::string& name) {
  return name == "s27" ? map_to_nand_nor_inv(make_s27())
                       : benchtool::prepare_circuit(name);
}

/// The budgets table1_power runs each circuit at.
FlowOptions golden_options(const Netlist& nl) {
  return benchtool::tuned_options(compute_stats(nl).num_comb_gates);
}

/// PODEM as generate_tests runs it: the tuned backtrack limit, and the
/// lines learned constant at that budget in `constants`.
PodemOptions golden_podem_options(const Netlist& nl,
                                  std::vector<Logic>& constants) {
  PodemOptions popts;
  popts.backtrack_limit = golden_options(nl).tpg.podem_backtrack_limit;
  constants = learn_constant_lines(nl, popts.backtrack_limit);
  popts.constant_lines = constants;
  return popts;
}

/// Per-fault PODEM results as generate_tests runs it: every collapsed
/// fault up to s510, a fixed-stride sample of at most 300 faults above.
std::uint64_t podem_golden_hash(const std::string& name) {
  const Netlist nl = golden_circuit(name);
  const std::vector<Fault> faults = collapse_faults(nl);
  std::vector<Logic> constants;
  Podem podem(nl, golden_podem_options(nl, constants));
  static const std::size_t s510_gates = golden_circuit("s510").num_gates();
  const std::size_t stride =
      nl.num_gates() > s510_gates ? (faults.size() + 299) / 300 : 1;
  GoldenHasher h;
  for (std::size_t i = 0; i < faults.size(); i += stride) {
    const PodemResult r = podem.generate(faults[i]);
    h.u64(static_cast<std::uint64_t>(r.status));
    h.u64(static_cast<std::uint64_t>(r.backtracks));
    h.str(r.pattern.to_string());
  }
  return h.h;
}

/// The X-path check and the learned constants only cut subtrees that hold
/// no test. Against the search without them (the oracle), at the tuned
/// backtrack limits, for PODEM without and with learned constants: a fault
/// the oracle resolves keeps its status and pattern, with no more
/// backtracks; a fault the oracle aborts may be resolved, and a pattern
/// found for it must detect it. Every collapsed fault up to s510, a
/// fixed-stride sample of at most 300 faults above.
TEST(PodemOracleRelation, PrunesKeepEveryResolvedFault) {
  static const std::size_t s510_gates = golden_circuit("s510").num_gates();
  for (const char* name : {"s27", "s344", "s382", "s444", "s510", "s641",
                           "s713", "s1196", "s1238", "s1423", "s1494"}) {
    const Netlist nl = golden_circuit(name);
    const std::vector<Fault> faults = collapse_faults(nl);
    std::vector<Logic> constants;
    const PodemOptions learned = golden_podem_options(nl, constants);
    PodemOptions plain = learned;
    plain.constant_lines = {};
    Podem podem_plain(nl, plain);
    Podem podem_learned(nl, learned);
    oracle::PodemOracle reference(nl, plain);
    const std::size_t stride =
        nl.num_gates() > s510_gates ? (faults.size() + 299) / 300 : 1;
    FaultSimulator fsim(nl);
    Rng rng(47);
    for (std::size_t i = 0; i < faults.size(); i += stride) {
      const Fault& f = faults[i];
      const PodemResult want = reference.generate(f);
      for (Podem* podem : {&podem_plain, &podem_learned}) {
        const PodemResult got = podem->generate(f);
        const std::string where = std::string(name) + " " + f.to_string(nl) +
                                  (podem == &podem_plain ? "" : " (learned)");
        if (want.status != PodemStatus::Aborted) {
          EXPECT_EQ(got.status, want.status) << where;
          EXPECT_EQ(got.pattern.to_string(), want.pattern.to_string())
              << where;
          EXPECT_LE(got.backtracks, want.backtracks) << where;
        } else if (got.status == PodemStatus::Detected) {
          TestPattern p = got.pattern;
          p.random_fill(rng);
          const FaultSimResult sim =
              fsim.run(std::span<const TestPattern>(&p, 1),
                       std::span<const Fault>(&f, 1));
          EXPECT_TRUE(sim.detected[0]) << where;
        }
      }
    }
  }
}

/// For every line, which values it takes over all 2^n source assignments:
/// bit 0 set if it takes 0, bit 1 if it takes 1. Sources are PIs then
/// DFFs; the first six count within a word, the rest across words and
/// sweeps (a lane past 2^n repeats an assignment, which is harmless).
std::vector<std::uint8_t> exhaustive_value_sets(const Netlist& nl) {
  std::vector<GateId> sources(nl.inputs());
  sources.insert(sources.end(), nl.dffs().begin(), nl.dffs().end());
  constexpr int kWords = 8;
  constexpr PatternWord kLaneBits[6] = {
      0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
      0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL};
  BlockSimulator sim(nl, kWords);
  std::vector<PatternWord> ones(nl.num_gates(), 0);
  std::vector<PatternWord> zeros(nl.num_gates(), 0);
  const std::uint64_t total = std::uint64_t{1} << sources.size();
  for (std::uint64_t base = 0; base < total; base += 64 * kWords) {
    for (std::size_t k = 0; k < sources.size(); ++k) {
      for (int w = 0; w < kWords; ++w) {
        const std::uint64_t first = base + 64 * static_cast<std::uint64_t>(w);
        sim.set_source_word(sources[k], w,
                            k < 6 ? kLaneBits[k]
                            : (first >> k) & 1 ? ~PatternWord{0}
                                               : PatternWord{0});
      }
    }
    sim.eval();
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      for (int w = 0; w < kWords; ++w) {
        ones[g] |= sim.word(g, w);
        zeros[g] |= ~sim.word(g, w);
      }
    }
  }
  std::vector<std::uint8_t> sets(nl.num_gates(), 0);
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    sets[g] = static_cast<std::uint8_t>((zeros[g] != 0 ? 1 : 0) |
                                        (ones[g] != 0 ? 2 : 0));
  }
  return sets;
}

/// Every learned constant holds under every source assignment, and on
/// these profiles every line that is constant is learned at the tuned
/// budget.
TEST(ConstantLines, MatchExhaustiveSimulation) {
  for (const char* name : {"s27", "s344", "s382", "s444", "s510"}) {
    const Netlist nl = golden_circuit(name);
    ASSERT_LE(nl.inputs().size() + nl.dffs().size(), 25u) << name;
    const std::vector<Logic> constants = learn_constant_lines(
        nl, golden_options(nl).tpg.podem_backtrack_limit);
    ASSERT_EQ(constants.size(), nl.num_gates()) << name;
    const std::vector<std::uint8_t> sets = exhaustive_value_sets(nl);
    std::size_t learned = 0;
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      const Logic want = sets[g] == 1   ? Logic::Zero
                         : sets[g] == 2 ? Logic::One
                                        : Logic::X;  // toggles
      EXPECT_EQ(constants[g], want) << name << " " << nl.gate_name(g);
      learned += is_known(constants[g]);
    }
    if (std::string(name) != "s27") {
      EXPECT_GT(learned, 0u) << name;
    }
  }
}

/// A pin fault at its gate's non-controlling value is untestable when the
/// output fault that dominates it is: checked for every such fault whose
/// dominating fault PODEM proves untestable, against the oracle search.
TEST(DominanceInference, InferredFaultsAreUntestable) {
  std::size_t inferred = 0;
  for (const char* name : {"s27", "s344", "s382", "s444", "s510"}) {
    const Netlist nl = golden_circuit(name);
    std::vector<Logic> constants;
    const PodemOptions popts = golden_podem_options(nl, constants);
    Podem podem(nl, popts);
    // The oracle gets a larger budget: at the tuned one it aborts on one
    // of these s510 faults.
    PodemOptions exhaustive;
    exhaustive.backtrack_limit = 1 << 20;
    oracle::PodemOracle reference(nl, exhaustive);
    for (const Fault& f : collapse_faults(nl)) {
      const auto dom = dominating_output_fault(nl, f);
      if (!dom) continue;
      const Fault rep = collapse_representative(nl, *dom);
      if (podem.generate(rep).status != PodemStatus::Untestable) continue;
      ++inferred;
      EXPECT_EQ(reference.generate(f).status, PodemStatus::Untestable)
          << name << " " << f.to_string(nl);
    }
  }
  EXPECT_GT(inferred, 0u);
}

/// Each fault's result depends on that fault alone: one long-lived Podem
/// returns what a fresh one does, without and with learned constants.
TEST(PodemHistory, ResultsIndependentOfEarlierFaults) {
  for (const char* name : {"s27", "s344", "s510"}) {
    const Netlist nl = golden_circuit(name);
    const std::vector<Fault> faults = collapse_faults(nl);
    std::vector<Logic> constants;
    const PodemOptions learned = golden_podem_options(nl, constants);
    PodemOptions plain = learned;
    plain.constant_lines = {};
    for (const PodemOptions& popts : {plain, learned}) {
      Podem shared(nl, popts);
      for (const Fault& f : faults) {
        const PodemResult a = shared.generate(f);
        const PodemResult b = Podem(nl, popts).generate(f);
        const std::string where = std::string(name) + " " + f.to_string(nl) +
                                  (popts.constant_lines.empty() ? "" : " (learned)");
        EXPECT_EQ(a.status, b.status) << where;
        EXPECT_EQ(a.backtracks, b.backtracks) << where;
        EXPECT_EQ(a.pattern.to_string(), b.pattern.to_string()) << where;
      }
    }
  }
}

std::uint64_t test_set_golden_hash(const TestSet& ts) {
  GoldenHasher h;
  h.u64(ts.total_faults);
  h.u64(ts.detected_faults);
  h.u64(ts.untestable_faults);
  h.u64(ts.aborted_faults);
  for (const TestPattern& p : ts.patterns) h.str(p.to_string());
  return h.h;
}

/// FindControlledInputPattern in both Table-I configurations: input
/// control (no muxes, depth directive) and the proposed structure (AddMUX
/// plan, leakage-observability directive).
std::uint64_t justify_golden_hash(const std::string& name) {
  const Netlist nl = golden_circuit(name);
  ScanSession session(nl, golden_options(nl));
  const FlowOptions& o = session.options();
  const CapacitanceModel& caps = o.delay.caps();
  GoldenHasher h;
  auto add = [&](const FindPatternResult& r) {
    h.str(logic_string(r.pi_pattern));
    h.str(logic_string(r.mux_pattern));
    h.u64(r.gates_blocked);
    h.u64(r.gates_propagated);
  };
  MuxPlan no_mux;
  no_mux.multiplexed.assign(nl.dffs().size(), false);
  FindPatternOptions undirected;
  undirected.justify_backtrack_limit = o.justify_backtrack_limit;
  add(find_controlled_input_pattern(nl, no_mux, caps, undirected));
  FindPatternOptions directed = undirected;
  directed.observability = &session.observability().values();
  add(find_controlled_input_pattern(nl, plan_muxes(nl, o.delay, o.mux), caps,
                                    directed));
  return h.h;
}

std::string hex64(std::uint64_t v) {
  return strprintf("0x%016llx", static_cast<unsigned long long>(v));
}

struct Golden {
  const char* circuit;
  std::uint64_t hash;
};

TEST(GoldenHash, PodemPerFaultResults) {
  const Golden expected[] = {
      {"s27", 0xce6f0488719147f0ULL},
      {"s344", 0x8327eff87ae81eb3ULL},
      {"s382", 0xf537e78d4676cf96ULL},
      {"s444", 0x9c0f6349c70a3b22ULL},
      {"s510", 0x770b26a6613e9504ULL},
      {"s641", 0xaf1b7f9ed8f16d43ULL},
      {"s713", 0x39923a75b3953e79ULL},
      {"s1196", 0x85e3e463a889ebe6ULL},
      {"s1238", 0xb3dd480bbb611983ULL},
      {"s1423", 0xe46697ed24def5d8ULL},
      {"s1494", 0x6d14982f1d1ded81ULL},
      {"s5378", 0x0a4e8e3eb0b70e56ULL},
      {"s9234", 0xe537e222cc686d1cULL},
  };
  for (const Golden& g : expected) {
    EXPECT_EQ(hex64(podem_golden_hash(g.circuit)), hex64(g.hash)) << g.circuit;
  }
}

TEST(GoldenHash, GeneratedTestSets) {
  const Golden expected[] = {
      {"s344", 0x3444dc9ee7840cd4ULL},
      {"s382", 0x932fa83305577065ULL},
      {"s444", 0xe6f3436970ec46c3ULL},
      {"s510", 0x6419aa6d8d8cc909ULL},
  };
  for (const Golden& g : expected) {
    const Netlist nl = golden_circuit(g.circuit);
    const TestSet ts = generate_tests(nl, golden_options(nl).tpg);
    EXPECT_EQ(hex64(test_set_golden_hash(ts)), hex64(g.hash)) << g.circuit;
  }
}

TEST(GoldenHash, FindControlledInputPattern) {
  // Every profile runs both configurations in well under a second.
  const Golden expected[] = {
      {"s27", 0x7c8891dde48ea42cULL},
      {"s344", 0xc8b820afccdfe2e8ULL},
      {"s382", 0x410437ae0d4c42c8ULL},
      {"s444", 0x378d8c339809b2e3ULL},
      {"s510", 0x441f474d68240246ULL},
      {"s641", 0xe77bb79af650fbe6ULL},
      {"s713", 0x11fa066cd1af2e0dULL},
      {"s1196", 0x8842b80bcd629016ULL},
      {"s1238", 0x8766173cc5bbe8c4ULL},
      {"s1423", 0xdbafa5d1a63b6c61ULL},
      {"s1494", 0xa3263c31412dd5a6ULL},
      {"s5378", 0x5373212b056e6d59ULL},
      {"s9234", 0x779bbbe82a2cb647ULL},
  };
  for (const Golden& g : expected) {
    EXPECT_EQ(hex64(justify_golden_hash(g.circuit)), hex64(g.hash))
        << g.circuit;
  }
}

}  // namespace
}  // namespace scanpower
