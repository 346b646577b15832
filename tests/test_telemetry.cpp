// Telemetry: metrics registry, phase tracing, and the determinism contract.
//
// Property groups:
//  1. Registry mechanics -- shard merge, gauges, histogram bucketing,
//     reset, and text/JSON serialization.
//  2. Counter determinism -- semantic counters are invariant across every
//     (block_words, num_threads) in {1,4}x{1,4}; work counters are
//     invariant across thread counts at fixed block_words. `_us` counters
//     and pool counters carry no guarantee and are excluded.
//  3. Exactness -- the registry deltas around one diagnose() equal the
//     DiagnosisResult::stats fields for that query (same single
//     measurement feeds both).
//  4. Tracing -- spans nest correctly per shard, the Chrome trace_event
//     export is well-formed JSON, and enabling telemetry never perturbs
//     rankings (byte-identical with a scope attached vs nullptr).
//  5. Test generation -- the podem.* counters, with the faults
//     tpg.untestable_inferred proves without PODEM, equal the TestSet's
//     outcome tallies in every (block_words, num_threads) configuration;
//     they and tpg.* are invariant across thread counts (the TestSet
//     itself depends on block_words), justify.* across every
//     configuration; generate_tests traces one span per phase; attaching
//     a scope never changes a TestSet or a FindControlledInputPattern
//     result.
//  6. Scan-power evaluation -- power_eval.calls / power_eval.cycles /
//     power_eval.sweeps are added once per evaluation: run_flow adds 3
//     calls and the three columns' cycles; they follow only the evaluated
//     test sets, so they are invariant across every (block_words,
//     num_threads) on a fixed set; sweeps equals the packed sweeps run;
//     the session's telemetry-fed evaluations equal a standalone
//     evaluator's results byte for byte.
//
// Every test compiles (and passes, mostly as skips or zero-checks) under
// -DSCANPOWER_TELEMETRY=OFF -- that build's whole point is that this API
// surface still exists and costs nothing.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/tpg.hpp"
#include "benchgen/benchgen.hpp"
#include "core/find_pattern.hpp"
#include "core/session.hpp"
#include "diag/diagnose.hpp"
#include "diag/response.hpp"
#include "oracle/scan_power_oracle.hpp"
#include "scan/scan_sim.hpp"
#include "techmap/techmap.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/telemetry.hpp"

namespace scanpower {
namespace {

std::vector<TestPattern> random_patterns(const Netlist& nl, int n,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TestPattern> pats;
  pats.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pats.push_back(random_pattern(nl, rng));
  return pats;
}

/// Rankings must agree field-for-field (the bit-identical contract).
void expect_same_ranking(const DiagnosisResult& a, const DiagnosisResult& b,
                         const std::string& what) {
  ASSERT_EQ(a.ranked.size(), b.ranked.size()) << what;
  for (std::size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].fault_index, b.ranked[i].fault_index)
        << what << " rank " << i;
    EXPECT_EQ(a.ranked[i].tfsf, b.ranked[i].tfsf) << what << " rank " << i;
    EXPECT_EQ(a.ranked[i].tfsp, b.ranked[i].tfsp) << what << " rank " << i;
    EXPECT_EQ(a.ranked[i].tpsf, b.ranked[i].tpsf) << what << " rank " << i;
    EXPECT_EQ(a.ranked[i].dropped, b.ranked[i].dropped)
        << what << " rank " << i;
  }
}

/// Minimal JSON well-formedness scanner: balanced {}/[] outside strings,
/// with escape handling. Not a parser -- just enough to catch an unclosed
/// object or a raw quote in the trace export.
bool json_balanced(const std::string& s) {
  std::vector<char> stack;
  bool in_str = false;
  bool escaped = false;
  for (const char c : s) {
    if (in_str) {
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') in_str = false;
      continue;
    }
    switch (c) {
      case '"': in_str = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_str && stack.empty();
}

// ---------- registry mechanics ----------------------------------------------

TEST(MetricsRegistryTest, ShardsMergeIntoOneSum) {
  MetricsRegistry reg;
  // Same counter from several shards, including out-of-range ones (clamped).
  reg.add(0, CounterId::kDiagQueries, 3);
  reg.add(1, CounterId::kDiagQueries, 4);
  reg.add(63, CounterId::kDiagQueries, 5);
  reg.add(-1, CounterId::kDiagQueries, 1);   // clamps to shard 0
  reg.add(999, CounterId::kDiagQueries, 2);  // clamps to shard 63
  reg.set_gauge(GaugeId::kPoolWorkers, 7);
  reg.record_hist(HistId::kDiagnoseUs, 100);
  const MetricsSnapshot s = reg.snapshot();
  if constexpr (kTelemetryEnabled) {
    EXPECT_EQ(s.counter(CounterId::kDiagQueries), 15u);
    EXPECT_EQ(s.gauge(GaugeId::kPoolWorkers), 7);
    EXPECT_EQ(s.hist_count(HistId::kDiagnoseUs), 1u);
  } else {
    // Disabled build: every entry point is a no-op and snapshots are zero.
    EXPECT_EQ(s.counter(CounterId::kDiagQueries), 0u);
    EXPECT_EQ(s.gauge(GaugeId::kPoolWorkers), 0);
    EXPECT_EQ(s.hist_count(HistId::kDiagnoseUs), 0u);
  }
}

TEST(MetricsRegistryTest, ResetZeroesEverything) {
  MetricsRegistry reg;
  reg.add(2, CounterId::kSweepCalls, 42);
  reg.set_gauge(GaugeId::kGoodBlocksCached, 9);
  reg.record_hist(HistId::kCompactDiagnoseUs, 5);
  reg.reset();
  const MetricsSnapshot s = reg.snapshot();
  EXPECT_EQ(s.counter(CounterId::kSweepCalls), 0u);
  EXPECT_EQ(s.gauge(GaugeId::kGoodBlocksCached), 0);
  EXPECT_EQ(s.hist_count(HistId::kCompactDiagnoseUs), 0u);
}

TEST(MetricsRegistryTest, HistBucketsArePowersOfTwo) {
  // bucket i holds values with bit_width == i: 0 -> 0, 1 -> 1, [2,3] -> 2...
  EXPECT_EQ(MetricsRegistry::hist_bucket(0), 0u);
  EXPECT_EQ(MetricsRegistry::hist_bucket(1), 1u);
  EXPECT_EQ(MetricsRegistry::hist_bucket(2), 2u);
  EXPECT_EQ(MetricsRegistry::hist_bucket(3), 2u);
  EXPECT_EQ(MetricsRegistry::hist_bucket(4), 3u);
  EXPECT_EQ(MetricsRegistry::hist_bucket(1023), 10u);
  EXPECT_EQ(MetricsRegistry::hist_bucket(1024), 11u);
  // The last bucket absorbs everything >= 2^30 us.
  EXPECT_EQ(MetricsRegistry::hist_bucket(~0ull), kNumHistBuckets - 1);
}

TEST(MetricsSnapshotTest, TextAndJsonSerialization) {
  if (!kTelemetryEnabled) GTEST_SKIP() << "telemetry compiled out";
  MetricsRegistry reg;
  reg.add(0, CounterId::kDiagQueries, 2);
  reg.add(1, CounterId::kSweepCalls, 10);
  reg.set_gauge(GaugeId::kPoolWorkers, 4);
  reg.record_hist(HistId::kDiagnoseUs, 1000);
  const MetricsSnapshot s = reg.snapshot();

  std::ostringstream text;
  s.write_text(text);
  EXPECT_NE(text.str().find(counter_name(CounterId::kDiagQueries)),
            std::string::npos);
  EXPECT_NE(text.str().find(counter_name(CounterId::kSweepCalls)),
            std::string::npos);
  EXPECT_NE(text.str().find(gauge_name(GaugeId::kPoolWorkers)),
            std::string::npos);
  // Zero-valued counters stay out of the dump.
  EXPECT_EQ(text.str().find(counter_name(CounterId::kXMaskBuilds)),
            std::string::npos);

  std::ostringstream json;
  JsonWriter w(json);
  w.begin_object();
  s.write_json(w);
  w.end_object();
  EXPECT_TRUE(json_balanced(json.str())) << json.str();
  EXPECT_NE(json.str().find("\"counters\""), std::string::npos);
  EXPECT_NE(json.str().find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.str().find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistryTest, EveryIdHasAName) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const char* n = counter_name(static_cast<CounterId>(i));
    ASSERT_NE(n, nullptr);
    EXPECT_GT(std::string(n).size(), 0u) << "counter " << i;
  }
  for (std::size_t i = 0; i < kNumGauges; ++i)
    EXPECT_GT(std::string(gauge_name(static_cast<GaugeId>(i))).size(), 0u);
  for (std::size_t i = 0; i < kNumHists; ++i)
    EXPECT_GT(std::string(hist_name(static_cast<HistId>(i))).size(), 0u);
}

// ---------- counter determinism across configurations ------------------------

struct ConfigRun {
  MetricsSnapshot snap;
  DiagnosisResult full;
  DiagnosisResult compact;
};

ConfigRun run_config(const Netlist& nl, const std::vector<TestPattern>& pats,
                     int block_words, int num_threads) {
  FlowOptions opts;
  opts.diag.block_words = block_words;
  opts.diag.num_threads = num_threads;
  opts.tpg.fault_sim.block_words = block_words;
  opts.tpg.fault_sim.num_threads = num_threads;
  ScanSession session(Netlist(nl), opts);
  session.bind_patterns(pats);
  const Fault defect = session.faults()[session.faults().size() / 3];
  ConfigRun out;
  out.full = session.diagnose(Evidence{session.inject(defect)});
  out.compact = session.diagnose(Evidence{session.inject_compacted(defect)});
  // A second signature log reads the diff rows the first one filled.
  const Fault defect2 = session.faults()[session.faults().size() / 2];
  session.diagnose(Evidence{session.inject_compacted(defect2)});
  out.snap = session.metrics();
  return out;
}

/// Semantic counters: invariant across every configuration.
const CounterId kSemanticCounters[] = {
    CounterId::kDiagQueries,        CounterId::kDiagCandidates,
    CounterId::kDiagDropped,        CounterId::kDiagUnionFallbacks,
    CounterId::kDiagMultiplets,     CounterId::kCompactQueries,
    CounterId::kCompactCandidates,  CounterId::kCompactDiffCacheHits,
    CounterId::kCompactDiffCacheFills, CounterId::kConeCacheHits,
    CounterId::kConeCacheMisses,    CounterId::kGoodCacheBinds,
    CounterId::kXMaskBuilds,        CounterId::kSessionDiagnoseFull,
    CounterId::kSessionDiagnoseCompact, CounterId::kSessionBatches,
    CounterId::kSessionPatternBinds, CounterId::kSessionPatternBindHits,
    CounterId::kSessionCompactStateHits,
    CounterId::kSessionCompactStateMisses, CounterId::kSessionFlowRuns,
};

/// Work counters: invariant across thread counts at fixed block_words.
const CounterId kWorkCounters[] = {
    CounterId::kSweepCalls,        CounterId::kSweepUnexcited,
    CounterId::kSweepConeGates,    CounterId::kSweepActiveGates,
    CounterId::kSweepAborts,       CounterId::kGoodCacheBuiltBlocks,
    CounterId::kGoodCacheCachedReads, CounterId::kGoodCacheStreamedReads,
};

TEST(TelemetryDeterminismTest, CountersStableAcrossBlockWordsAndThreads) {
  if (!kTelemetryEnabled) GTEST_SKIP() << "telemetry compiled out";
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 96, 0x7e1e);

  struct Cfg { int w, t; };
  const Cfg cfgs[] = {{1, 1}, {1, 4}, {4, 1}, {4, 4}};
  std::vector<ConfigRun> runs;
  for (const Cfg& c : cfgs) runs.push_back(run_config(nl, pats, c.w, c.t));

  // The engine contract first: rankings bit-identical everywhere.
  for (std::size_t i = 1; i < runs.size(); ++i) {
    expect_same_ranking(runs[0].full, runs[i].full, "full, config " +
                        std::to_string(i));
    expect_same_ranking(runs[0].compact, runs[i].compact, "compact, config " +
                        std::to_string(i));
  }

  // Semantic counters: equal across all four configurations.
  for (const CounterId id : kSemanticCounters) {
    for (std::size_t i = 1; i < runs.size(); ++i) {
      EXPECT_EQ(runs[0].snap.counter(id), runs[i].snap.counter(id))
          << counter_name(id) << " differs at config (" << cfgs[i].w << ","
          << cfgs[i].t << ")";
    }
  }
  EXPECT_EQ(runs[0].snap.counter(CounterId::kDiagQueries), 1u);
  EXPECT_EQ(runs[0].snap.counter(CounterId::kCompactQueries), 2u);
  EXPECT_GT(runs[0].snap.counter(CounterId::kCompactDiffCacheHits), 0u);
  EXPECT_EQ(runs[0].snap.counter(CounterId::kCompactDiffCacheHits) +
                runs[0].snap.counter(CounterId::kCompactDiffCacheFills),
            runs[0].snap.counter(CounterId::kCompactCandidates));
  EXPECT_EQ(runs[0].snap.counter(CounterId::kSessionPatternBinds), 1u);

  // Work counters: equal across thread counts at fixed block_words.
  const std::pair<std::size_t, std::size_t> same_w[] = {{0, 1}, {2, 3}};
  for (const auto& [a, b] : same_w) {
    for (const CounterId id : kWorkCounters) {
      EXPECT_EQ(runs[a].snap.counter(id), runs[b].snap.counter(id))
          << counter_name(id) << " differs across threads at W="
          << cfgs[a].w;
    }
  }
  EXPECT_GT(runs[0].snap.counter(CounterId::kSweepCalls), 0u);
}

// ---------- registry <-> DiagnosisResult::stats exactness --------------------

TEST(TelemetryExactnessTest, RegistryDeltasMatchDiagnosisStats) {
  if (!kTelemetryEnabled) GTEST_SKIP() << "telemetry compiled out";
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 96, 0xbeef);
  FlowOptions opts;
  opts.diag.num_threads = 4;
  opts.tpg.fault_sim.num_threads = 4;
  ScanSession session(Netlist(nl), opts);
  session.bind_patterns(pats);
  const Fault defect = session.faults()[session.faults().size() / 4];
  const Evidence log{session.inject(defect)};

  const MetricsSnapshot before = session.metrics();
  const DiagnosisResult res = session.diagnose(log);
  const MetricsSnapshot after = session.metrics();
  const auto delta = [&](CounterId id) {
    return after.counter(id) - before.counter(id);
  };

  // One query; the same single measurement feeds the stats field, the
  // registry `_us` counter and (when enabled) the trace span.
  EXPECT_EQ(delta(CounterId::kDiagQueries), 1u);
  EXPECT_EQ(delta(CounterId::kDiagPruneUs), res.stats.prune_us);
  EXPECT_EQ(delta(CounterId::kDiagScoreUs), res.stats.score_us);
  EXPECT_EQ(delta(CounterId::kDiagCoverUs), res.stats.cover_us);
  EXPECT_EQ(delta(CounterId::kSweepCalls), res.stats.sweep_calls);
  EXPECT_EQ(delta(CounterId::kSweepAborts), res.stats.sweep_aborts);
  EXPECT_EQ(delta(CounterId::kConeCacheHits), res.stats.cone_cache_hits);
  EXPECT_EQ(delta(CounterId::kConeCacheMisses), res.stats.cone_cache_misses);
  EXPECT_EQ(delta(CounterId::kDiagCandidates), res.num_candidates);
  EXPECT_EQ(after.hist_count(HistId::kDiagnoseUs) -
                before.hist_count(HistId::kDiagnoseUs),
            1u);
  // Stats populate even without a registry attached, so they are never
  // all-zero on a non-trivial query.
  EXPECT_GT(res.stats.sweep_calls, 0u);
}

// ---------- tracing ----------------------------------------------------------

TEST(TraceRecorderTest, SpansNestAndExportIsWellFormed) {
  if (!kTelemetryEnabled) GTEST_SKIP() << "telemetry compiled out";
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 64, 0x77ace);
  ScanSession session(Netlist(nl), FlowOptions{});
  session.telemetry().trace.set_enabled(true);
  session.bind_patterns(pats);
  const Fault defect = session.faults()[session.faults().size() / 3];
  (void)session.diagnose(Evidence{session.inject(defect)});

  const std::vector<TraceEvent> evs = session.telemetry().trace.events();
  ASSERT_GE(evs.size(), 4u);  // session span + diagnose + prune + score

  const auto count = [&](const std::string& name) {
    std::size_t n = 0;
    for (const TraceEvent& e : evs) n += (name == e.name) ? 1 : 0;
    return n;
  };
  EXPECT_EQ(count("session.diagnose_full"), 1u);
  EXPECT_EQ(count("diagnose"), 1u);
  EXPECT_EQ(count("prune"), 1u);
  EXPECT_EQ(count("score"), 1u);

  // Every nested span lies inside some span one level up on its shard.
  for (const TraceEvent& e : evs) {
    if (e.depth == 0) continue;
    bool enclosed = false;
    for (const TraceEvent& outer : evs) {
      if (outer.shard != e.shard || outer.depth != e.depth - 1) continue;
      if (outer.start_us <= e.start_us &&
          e.start_us + e.dur_us <= outer.start_us + outer.dur_us) {
        enclosed = true;
        break;
      }
    }
    EXPECT_TRUE(enclosed) << e.name << " (depth " << e.depth
                          << ") has no enclosing span";
  }

  std::ostringstream os;
  session.telemetry().trace.write_chrome_trace(os);
  const std::string trace = os.str();
  EXPECT_TRUE(json_balanced(trace));
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\""), std::string::npos);

  session.telemetry().trace.clear();
  EXPECT_TRUE(session.telemetry().trace.events().empty());
}

TEST(TraceRecorderTest, TestGenerationPhasesAreSpans) {
  if (!kTelemetryEnabled) GTEST_SKIP() << "telemetry compiled out";
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  Telemetry telem;
  telem.trace.set_enabled(true);
  TpgOptions opts;
  opts.fault_sim.telemetry = &telem;
  (void)generate_tests(nl, opts);
  // One span per phase, in flow order, one after the other.
  const char* const phases[] = {"tpg.random", "tpg.learn", "tpg.podem",
                                "tpg.compact"};
  const std::vector<TraceEvent> evs = telem.trace.events();
  std::uint64_t prev_end = 0;
  for (const char* phase : phases) {
    std::vector<TraceEvent> found;
    for (const TraceEvent& e : evs) {
      if (std::string(phase) == e.name) found.push_back(e);
    }
    ASSERT_EQ(found.size(), 1u) << phase;
    EXPECT_EQ(found[0].depth, 0) << phase;
    EXPECT_GE(found[0].start_us, prev_end) << phase;
    prev_end = found[0].start_us + found[0].dur_us;
  }
}

TEST(TraceRecorderTest, DisabledRecorderStaysEmpty) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 32, 0x50ff);
  ScanSession session(Netlist(nl), FlowOptions{});
  // Recording is off by default (and unconditionally off when compiled out).
  session.bind_patterns(pats);
  const Fault defect = session.faults()[0];
  (void)session.diagnose(Evidence{session.inject(defect)});
  EXPECT_TRUE(session.telemetry().trace.events().empty());
  if (!kTelemetryEnabled) {
    session.telemetry().trace.set_enabled(true);
    EXPECT_FALSE(session.telemetry().trace.enabled());
  }
}

// ---------- telemetry never perturbs results ---------------------------------

TEST(TelemetryNeutralityTest, RankingsIdenticalWithAndWithoutScope) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 96, 0xacc3);
  const auto faults = collapse_faults(nl);
  ResponseCapture cap(nl, 4);
  const FailureLog log = cap.inject(pats, faults[faults.size() / 3]);
  ASSERT_FALSE(log.failures.empty());

  DiagnosisOptions off;
  off.telemetry = nullptr;
  Diagnoser plain(nl, off);
  const DiagnosisResult r_off = plain.diagnose(pats, faults, log);

  Telemetry telem;
  telem.trace.set_enabled(true);
  DiagnosisOptions on;
  on.telemetry = &telem;
  Diagnoser instrumented(nl, on);
  const DiagnosisResult r_on = instrumented.diagnose(pats, faults, log);

  expect_same_ranking(r_off, r_on, "telemetry on vs off");
  EXPECT_EQ(r_off.num_candidates, r_on.num_candidates);
  // The nullptr-scope run still timed itself into the result stats.
  if (kTelemetryEnabled) {
    EXPECT_EQ(r_off.stats.sweep_calls, r_on.stats.sweep_calls);
    EXPECT_GT(telem.metrics.snapshot().counter(CounterId::kDiagQueries), 0u);
    EXPECT_FALSE(telem.trace.events().empty());
  }
}

// ---------- PODEM / justify counters ------------------------------------------

const CounterId kTpgCounters[] = {
    CounterId::kPodemCalls,     CounterId::kPodemBacktracks,
    CounterId::kPodemDetected,  CounterId::kPodemUntestable,
    CounterId::kPodemAborted,   CounterId::kPodemXpathPrunes,
    CounterId::kJustifyCalls,   CounterId::kJustifyBacktracks,
    CounterId::kTpgConstantLines, CounterId::kTpgUntestableInferred,
};

/// A tight PODEM budget so s344 ends with all three outcomes.
FlowOptions tpg_counter_options(int block_words, int num_threads) {
  FlowOptions opts;
  opts.tpg.podem_backtrack_limit = 3;
  opts.tpg.fault_sim.block_words = block_words;
  opts.tpg.fault_sim.num_threads = num_threads;
  opts.observability.block_words = block_words;
  opts.observability.num_threads = num_threads;
  return opts;
}

TEST(TelemetryTpgCountersTest, PodemCountersMatchTestSetAcrossConfigs) {
  if (!kTelemetryEnabled) GTEST_SKIP() << "telemetry compiled out";
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  struct Cfg { int w, t; };
  const Cfg cfgs[] = {{1, 1}, {1, 4}, {4, 1}, {4, 4}};
  std::vector<MetricsSnapshot> snaps;
  for (const Cfg& c : cfgs) {
    ScanSession session(Netlist(nl), tpg_counter_options(c.w, c.t));
    session.run_flow();
    const TestSet& ts = session.tests();
    const MetricsSnapshot m = session.metrics();
    const std::string cfg = strprintf("(%d,%d)", c.w, c.t);
    // A fault is proven untestable either by PODEM or by dominance,
    // without a PODEM call.
    const std::uint64_t inferred =
        m.counter(CounterId::kTpgUntestableInferred);
    EXPECT_EQ(m.counter(CounterId::kPodemUntestable) + inferred,
              ts.untestable_faults)
        << cfg;
    EXPECT_EQ(m.counter(CounterId::kPodemAborted), ts.aborted_faults) << cfg;
    EXPECT_EQ(m.counter(CounterId::kPodemCalls) + inferred,
              m.counter(CounterId::kPodemDetected) + ts.untestable_faults +
                  ts.aborted_faults)
        << cfg;
    EXPECT_GT(m.counter(CounterId::kPodemDetected), 0u) << cfg;
    EXPECT_GT(ts.untestable_faults, 0u) << cfg;
    EXPECT_GT(ts.aborted_faults, 0u) << cfg;
    EXPECT_GT(m.counter(CounterId::kPodemBacktracks), 0u) << cfg;
    EXPECT_GT(m.counter(CounterId::kPodemXpathPrunes), 0u) << cfg;
    EXPECT_GT(m.counter(CounterId::kTpgConstantLines), 0u) << cfg;
    EXPECT_GT(inferred, 0u) << cfg;
    EXPECT_GT(m.counter(CounterId::kJustifyCalls), 0u) << cfg;
    snaps.push_back(m);
  }
  // generate_tests sizes its random and PODEM batches to one packed block,
  // so the TestSet -- and with it which faults reach PODEM -- depends on
  // block_words by design. podem.* is therefore invariant across thread
  // counts at fixed block_words; justify.* runs after ATPG on a test-set
  // independent netlist walk and is invariant everywhere.
  const std::pair<std::size_t, std::size_t> same_w[] = {{0, 1}, {2, 3}};
  for (const auto& [a, b] : same_w) {
    for (const CounterId id : kTpgCounters) {
      EXPECT_EQ(snaps[a].counter(id), snaps[b].counter(id))
          << counter_name(id) << " differs across threads at W=" << cfgs[a].w;
    }
  }
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    for (const CounterId id :
         {CounterId::kJustifyCalls, CounterId::kJustifyBacktracks}) {
      EXPECT_EQ(snaps[0].counter(id), snaps[i].counter(id))
          << counter_name(id) << " differs at config (" << cfgs[i].w << ","
          << cfgs[i].t << ")";
    }
  }
}

TEST(TelemetryNeutralityTest, TestSetsAndPatternsIdenticalWithAndWithoutScope) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  TpgOptions off = tpg_counter_options(4, 1).tpg;
  off.fault_sim.telemetry = nullptr;
  Telemetry telem;
  TpgOptions on = off;
  on.fault_sim.telemetry = &telem;
  const TestSet ts_off = generate_tests(nl, off);
  const TestSet ts_on = generate_tests(nl, on);
  ASSERT_EQ(ts_off.patterns, ts_on.patterns);
  EXPECT_EQ(ts_off.untestable_faults, ts_on.untestable_faults);
  EXPECT_EQ(ts_off.aborted_faults, ts_on.aborted_faults);

  MuxPlan no_mux;
  no_mux.multiplexed.assign(nl.dffs().size(), false);
  const CapacitanceModel caps;
  FindPatternOptions fp_off;
  FindPatternOptions fp_on;
  fp_on.telemetry = &telem;
  const FindPatternResult p_off =
      find_controlled_input_pattern(nl, no_mux, caps, fp_off);
  const FindPatternResult p_on =
      find_controlled_input_pattern(nl, no_mux, caps, fp_on);
  EXPECT_EQ(p_off.pi_pattern, p_on.pi_pattern);
  EXPECT_EQ(p_off.implied_values, p_on.implied_values);
  EXPECT_EQ(p_off.gates_blocked, p_on.gates_blocked);

  if (kTelemetryEnabled) {
    const MetricsSnapshot m = telem.metrics.snapshot();
    EXPECT_EQ(m.counter(CounterId::kPodemUntestable) +
                  m.counter(CounterId::kTpgUntestableInferred),
              ts_on.untestable_faults);
    EXPECT_EQ(m.counter(CounterId::kPodemAborted), ts_on.aborted_faults);
    EXPECT_GT(m.counter(CounterId::kJustifyCalls), 0u);
  }
}

// ---------- scan-power counters -----------------------------------------------

TestSet seeded_tests(const Netlist& nl, int n) {
  Rng rng(0x9e3);
  TestSet ts;
  for (int i = 0; i < n; ++i) ts.patterns.push_back(random_pattern(nl, rng));
  return ts;
}

TEST(TelemetryPowerEvalTest, CountersFollowEvaluationsAcrossConfigs) {
  if (!kTelemetryEnabled) GTEST_SKIP() << "telemetry compiled out";
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const TestSet fixed = seeded_tests(nl, 6);
  struct Cfg { int w, t; };
  const Cfg cfgs[] = {{1, 1}, {1, 4}, {4, 1}, {4, 4}};
  std::vector<std::uint64_t> flow_cycles;
  std::vector<MetricsSnapshot> fixed_snaps;
  for (const Cfg& c : cfgs) {
    const std::string cfg = strprintf("(%d,%d)", c.w, c.t);
    ScanSession flow(Netlist(nl), tpg_counter_options(c.w, c.t));
    const FlowResult r = flow.run_flow();
    const MetricsSnapshot m = flow.metrics();
    EXPECT_EQ(m.counter(CounterId::kPowerEvalCalls), 3u) << cfg;
    EXPECT_EQ(m.counter(CounterId::kPowerEvalCycles),
              r.traditional.cycles + r.input_control.cycles +
                  r.proposed.cycles)
        << cfg;
    EXPECT_GT(m.counter(CounterId::kPowerEvalCycles), 0u) << cfg;
    flow_cycles.push_back(m.counter(CounterId::kPowerEvalCycles));

    // On a caller-supplied set nothing depends on (W, T).
    ScanSession session(Netlist(nl), tpg_counter_options(c.w, c.t));
    const ScanPowerResult p = session.power_report(fixed);
    const ScanPowerResult q = session.run_proposed(fixed);
    const MetricsSnapshot f = session.metrics();
    EXPECT_EQ(f.counter(CounterId::kPowerEvalCalls), 2u) << cfg;
    EXPECT_EQ(f.counter(CounterId::kPowerEvalCycles), p.cycles + q.cycles)
        << cfg;
    fixed_snaps.push_back(f);
  }
  // run_flow evaluates the session's ATPG set, which depends on
  // block_words by design (see the podem.* test above): its cycle count is
  // invariant across thread counts at fixed block_words.
  EXPECT_EQ(flow_cycles[0], flow_cycles[1]);
  EXPECT_EQ(flow_cycles[2], flow_cycles[3]);
  for (std::size_t i = 1; i < fixed_snaps.size(); ++i) {
    for (const CounterId id :
         {CounterId::kPowerEvalCalls, CounterId::kPowerEvalCycles}) {
      EXPECT_EQ(fixed_snaps[0].counter(id), fixed_snaps[i].counter(id))
          << counter_name(id) << " differs at config (" << cfgs[i].w << ","
          << cfgs[i].t << ")";
    }
  }
}

// power_eval.sweeps counts the packed sweeps behind the columns: one
// capture sweep per lane block of captured patterns plus one sweep per
// lane block of observed cycles, whatever the session's (W, T).
TEST(TelemetryPowerEvalTest, SweepsCountPackedWorkAcrossConfigs) {
  if (!kTelemetryEnabled) GTEST_SKIP() << "telemetry compiled out";
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const TestSet fixed = seeded_tests(nl, 40);
  const std::size_t lanes =
      static_cast<std::size_t>(ScanPowerEvaluator::kBlockWords) * 64;
  const auto blocks = [&](std::size_t n) { return (n + lanes - 1) / lanes; };
  const std::size_t cycles = fixed.patterns.size() * nl.dffs().size();
  const std::size_t per_eval =
      blocks(fixed.patterns.size() - 1) + blocks(cycles);
  ASSERT_GT(blocks(cycles), 1u);  // the cycle sweeps carry toggles

  const FlowOptions ref_opts = tpg_counter_options(1, 1);
  const LeakageModel model(ref_opts.leakage_params);
  ScanPowerEvaluator eval(nl, model, ref_opts.delay.caps(), ref_opts.power);
  const ScanPowerResult alone = eval.evaluate(fixed, {}, {}, ref_opts.scan);
  EXPECT_EQ(alone.cycles, cycles);
  EXPECT_EQ(alone.sweeps, per_eval);

  struct Cfg { int w, t; };
  for (const Cfg c : {Cfg{1, 1}, Cfg{1, 4}, Cfg{4, 1}, Cfg{4, 4}}) {
    const std::string cfg = strprintf("(%d,%d)", c.w, c.t);
    ScanSession session(Netlist(nl), tpg_counter_options(c.w, c.t));
    const ScanPowerResult p = session.power_report(fixed);
    const ScanPowerResult q = session.run_proposed(fixed);
    EXPECT_EQ(p.sweeps, per_eval) << cfg;
    EXPECT_EQ(q.sweeps, per_eval) << cfg;
    EXPECT_EQ(session.metrics().counter(CounterId::kPowerEvalSweeps),
              2 * per_eval)
        << cfg;
  }
}

TEST(TelemetryNeutralityTest, ScanPowerIdenticalWithAndWithoutScope) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const TestSet fixed = seeded_tests(nl, 6);
  const FlowOptions opts = tpg_counter_options(4, 1);
  ScanSession session(Netlist(nl), opts);
  session.telemetry().trace.set_enabled(true);
  const ScanPowerResult on = session.power_report(fixed);
  const FlowResult flow = session.run_flow();

  // The standalone evaluator reports to no telemetry scope at all.
  const LeakageModel model(opts.leakage_params);
  ScanPowerEvaluator eval(nl, model, opts.delay.caps(), opts.power);
  EXPECT_TRUE(
      oracle::bit_identical(on, eval.evaluate(fixed, {}, {}, opts.scan)));
  EXPECT_TRUE(oracle::bit_identical(
      flow.traditional, eval.evaluate(session.tests(), {}, {}, opts.scan)));
}

}  // namespace
}  // namespace scanpower
