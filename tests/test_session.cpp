// ScanSession: the stateful service API.
//
// Three property groups:
//  1. Option validation at construction -- bad MISR configurations, block
//     widths, thread counts and empty pattern sets throw actionable
//     errors naming the knob, instead of failing deep inside the engines.
//  2. Session-reuse determinism -- for every benchgen profile, results
//     from one long-lived session (repeated + interleaved full/compacted
//     diagnosis, observability and fill calls) are bit-identical to the
//     one-shot engines, across (block_words, num_threads) in {1,4}x{1,4}.
//  3. diagnose_batch -- mixed-evidence batches come back in input order,
//     bit-identical to sequential diagnose() calls, including under a
//     concurrent (4-worker) pool; this test is the ThreadSanitizer hook
//     for the batch fan-out.
//  4. The signature diff table -- compacted results equal the standalone
//     engine's whatever the table holds: query order, alternating MISR
//     configurations, rebinds, X-masked partial fills and batches.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "atpg/fault_sim.hpp"
#include "benchgen/benchgen.hpp"
#include "compact/compact_diag.hpp"
#include "compact/signature_log.hpp"
#include "core/dont_care_fill.hpp"
#include "core/session.hpp"
#include "diag/diagnose.hpp"
#include "power/observability.hpp"
#include "techmap/techmap.hpp"
#include "util/rng.hpp"

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

/// Expects that constructing a session with `opts` throws an Error whose
/// message mentions `needle` (the knob name).
void expect_ctor_error(const Netlist& nl, const FlowOptions& opts,
                       const std::string& needle) {
  try {
    ScanSession session(Netlist(nl), opts);
    FAIL() << "expected Error mentioning \"" << needle << "\"";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

void expect_same_result(const DiagnosisResult& a, const DiagnosisResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.num_faults, b.num_faults) << what;
  EXPECT_EQ(a.num_candidates, b.num_candidates) << what;
  EXPECT_EQ(a.num_dropped, b.num_dropped) << what;
  EXPECT_EQ(a.num_failures, b.num_failures) << what;
  EXPECT_EQ(a.num_windows, b.num_windows) << what;
  EXPECT_EQ(a.num_failing_windows, b.num_failing_windows) << what;
  ASSERT_EQ(a.ranked.size(), b.ranked.size()) << what;
  for (std::size_t i = 0; i < a.ranked.size(); ++i) {
    ASSERT_EQ(a.ranked[i].fault, b.ranked[i].fault) << what << " @" << i;
    ASSERT_EQ(a.ranked[i].fault_index, b.ranked[i].fault_index) << what;
    ASSERT_EQ(a.ranked[i].tfsf, b.ranked[i].tfsf) << what << " @" << i;
    ASSERT_EQ(a.ranked[i].tfsp, b.ranked[i].tfsp) << what << " @" << i;
    ASSERT_EQ(a.ranked[i].tpsf, b.ranked[i].tpsf) << what << " @" << i;
    ASSERT_EQ(a.ranked[i].dropped, b.ranked[i].dropped) << what << " @" << i;
  }
}

/// expect_same_result plus the fields it leaves out; every field of a
/// result but the timing and work tallies in `stats`.
void expect_same_fields(const DiagnosisResult& a, const DiagnosisResult& b,
                        const std::string& what) {
  expect_same_result(a, b, what);
  EXPECT_EQ(a.num_failing_patterns, b.num_failing_patterns) << what;
  EXPECT_EQ(a.num_failing_points, b.num_failing_points) << what;
  EXPECT_EQ(a.num_masked, b.num_masked) << what;
  EXPECT_EQ(a.union_fallback, b.union_fallback) << what;
  ASSERT_EQ(a.multiplets.size(), b.multiplets.size()) << what;
  for (std::size_t i = 0; i < a.multiplets.size(); ++i) {
    const SuspectSet& x = a.multiplets[i];
    const SuspectSet& y = b.multiplets[i];
    EXPECT_EQ(x.covered, y.covered) << what << " set " << i;
    EXPECT_EQ(x.uncovered, y.uncovered) << what << " set " << i;
    ASSERT_EQ(x.members.size(), y.members.size()) << what << " set " << i;
    for (std::size_t m = 0; m < x.members.size(); ++m) {
      EXPECT_EQ(x.members[m].fault, y.members[m].fault) << what << " set " << i;
    }
  }
}

// ---------- option validation ------------------------------------------------

TEST(SessionValidationTest, RejectsBadMisrConfig) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  FlowOptions opts;

  opts.misr.width = 3;
  expect_ctor_error(nl, opts, "misr.width");
  opts.misr.width = 65;
  expect_ctor_error(nl, opts, "misr.width");

  opts = FlowOptions{};
  opts.misr.window = 0;
  expect_ctor_error(nl, opts, "misr.window");

  // Missing top polynomial tap: the transition would not be invertible.
  opts = FlowOptions{};
  opts.misr.width = 16;
  opts.misr.poly = 0x0001;
  expect_ctor_error(nl, opts, "top");

  // Polynomial wider than the register.
  opts = FlowOptions{};
  opts.misr.width = 8;
  opts.misr.poly = 0x1ff;
  expect_ctor_error(nl, opts, "misr.poly");
}

TEST(SessionValidationTest, RejectsBadBlockWords) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  FlowOptions opts;
  opts.diag.block_words = 3;
  expect_ctor_error(nl, opts, "diag.block_words");

  opts = FlowOptions{};
  opts.observability.block_words = 5;
  expect_ctor_error(nl, opts, "observability.block_words");

  opts = FlowOptions{};
  opts.fill.block_words = 0;
  expect_ctor_error(nl, opts, "fill.block_words");

  opts = FlowOptions{};
  opts.tpg.fault_sim.block_words = 7;
  expect_ctor_error(nl, opts, "tpg.fault_sim.block_words");
}

TEST(SessionValidationTest, RejectsBadThreadAndSampleCounts) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  FlowOptions opts;
  opts.diag.num_threads = -1;
  expect_ctor_error(nl, opts, "diag.num_threads");

  opts = FlowOptions{};
  opts.observability.samples = 1;
  expect_ctor_error(nl, opts, "observability.samples");

  opts = FlowOptions{};
  opts.fill.trials = 0;
  expect_ctor_error(nl, opts, "fill.trials");
}

TEST(SessionValidationTest, RejectsEmptyAndUnboundPatternSets) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  ScanSession session{Netlist(nl)};

  // Zero-pattern test set.
  EXPECT_THROW(session.bind_patterns({}), Error);

  // Diagnosing before binding names the fix.
  FailureLog log;
  log.num_patterns = 4;
  try {
    session.diagnose(Evidence(log));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bind_patterns"), std::string::npos)
        << e.what();
  }
}

TEST(SessionValidationTest, FullResponseDiagnosisRejectsXPatterns) {
  const Netlist nl = map_to_nand_nor_inv(make_s27());
  ScanSession session{Netlist(nl)};
  std::vector<TestPattern> pats = random_patterns(nl, 8, 7);
  pats[3].pi[0] = Logic::X;  // an unfilled care-free bit
  session.bind_patterns(pats);

  FailureLog log;
  log.num_patterns = pats.size();
  EXPECT_THROW(session.diagnose(Evidence(log)), Error);
  EXPECT_THROW(session.inject(Fault{nl.find("G10"), -1, false}), Error);

  // The compacted path X-masks instead: the same binding diagnoses fine.
  const Fault f = session.faults()[2];
  MisrConfig cfg;
  cfg.window = 4;
  const SignatureLog slog = session.inject_compacted(f, cfg);
  const DiagnosisResult res = session.diagnose(Evidence(slog));
  if (slog.num_failing_windows() > 0) {
    EXPECT_GE(res.rank_of(f), 1u);
  }
}

// ---------- one entry point, both alternatives -------------------------------

TEST(SessionDiagnoseTest, EvidenceDispatchMatchesOneShotEngines) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto pats = random_patterns(nl, 64, 0x5e55);
  const auto faults = collapse_faults(nl);

  FlowOptions opts;
  opts.misr.window = 16;
  ScanSession session(Netlist(nl), opts);
  session.bind_patterns(pats);
  ASSERT_EQ(session.faults().size(), faults.size());

  ResponseCapture cap(nl, opts.diag.block_words);
  SignatureCapture scap(nl, opts.misr, opts.diag.block_words);
  Diagnoser one_shot(nl, opts.diag);
  SignatureDiagnoser one_shot_sig(nl, opts.diag);

  int compared = 0;
  for (std::size_t fi = 5; fi < faults.size() && compared < 6; fi += 53) {
    const FailureLog log = cap.inject(pats, faults[fi]);
    if (log.failures.empty()) continue;
    ++compared;

    // Session injection reproduces the one-shot tester...
    EXPECT_EQ(session.inject(faults[fi]).failures, log.failures);

    // ...and one diagnose() entry point serves both evidence kinds,
    // bit-identical to the dedicated engines.
    expect_same_result(session.diagnose(Evidence(log)),
                       one_shot.diagnose(pats, faults, log), "full");

    const SignatureLog slog = scap.inject(pats, faults[fi]);
    EXPECT_EQ(session.inject_compacted(faults[fi]).observed, slog.observed);
    expect_same_result(session.diagnose(Evidence(slog)),
                       one_shot_sig.diagnose(pats, faults, slog), "compact");
  }
  EXPECT_GE(compared, 3);
}

TEST(SessionDiagnoseTest, RebindInvalidatesPatternKeyedCaches) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto faults = collapse_faults(nl);
  const auto pats_a = random_patterns(nl, 48, 0xaaaa);
  const auto pats_b = random_patterns(nl, 80, 0xbbbb);

  ScanSession session{Netlist(nl)};
  Diagnoser one_shot(nl, DiagnosisOptions{});
  ResponseCapture cap(nl, 4);

  const Fault f = faults[17];
  for (const auto* pats : {&pats_a, &pats_b, &pats_a}) {
    session.bind_patterns(*pats);
    const FailureLog log = cap.inject(*pats, f);
    if (log.failures.empty()) continue;
    expect_same_result(session.diagnose(Evidence(log)),
                       one_shot.diagnose(*pats, faults, log), "rebind");
  }
}

// ---------- session-reuse determinism acceptance -----------------------------

// For every benchgen profile and every (block_words, num_threads) in
// {1,4}x{1,4}: one long-lived session serves repeated and interleaved
// full-response diagnosis, compacted diagnosis, observability and
// don't-care fill calls; every result must be bit-identical to the
// corresponding one-shot engine call, and the diagnosis rankings must
// also be bit-identical across all four configurations.
TEST(SessionReuseAcceptance, InterleavedCallsMatchOneShotOnAllProfiles) {
  for (const SynthProfile& profile : iscas89_profiles()) {
    const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(profile.name));
    const auto faults = collapse_faults(nl);
    const auto pats = random_patterns(nl, 48, 0x5e5510 + profile.seed);

    // Two detected faults per profile: one early, one late.
    FaultSimulator fsim(nl, FaultSimOptions{.block_words = 4});
    const FaultSimResult det = fsim.run(pats, faults);
    std::vector<std::size_t> sample;
    for (std::size_t fi = 0; fi < faults.size() && sample.size() < 1; ++fi) {
      if (det.detected[fi]) sample.push_back(fi);
    }
    for (std::size_t fi = faults.size(); fi-- > 0 && sample.size() < 2;) {
      if (det.detected[fi]) sample.push_back(fi);
    }
    ASSERT_EQ(sample.size(), 2u) << profile.name;
    const Fault f0 = faults[sample[0]];
    const Fault f1 = faults[sample[1]];

    // One-shot logs (shared across configurations; injection itself is
    // width-independent, which ResponseCaptureTest already guards).
    ResponseCapture cap(nl, 4);
    const FailureLog log0 = cap.inject(pats, f0);
    const FailureLog log1 = cap.inject(pats, f1);

    std::vector<bool> eligible(nl.dffs().size());
    for (std::size_t i = 0; i < eligible.size(); ++i) eligible[i] = i % 2 == 0;

    DiagnosisResult ref_full, ref_compact;
    bool have_ref = false;
    for (int words : {1, 4}) {
      for (int threads : {1, 4}) {
        FlowOptions opts;
        opts.diag.block_words = words;
        opts.diag.num_threads = threads;
        opts.misr.window = 16;  // 3 windows over 48 patterns
        opts.observability.samples = 64;
        opts.observability.block_words = words;
        opts.observability.num_threads = threads;
        opts.fill.trials = 8;
        opts.fill.block_words = words;

        ScanSession session(Netlist(nl), opts);
        session.bind_patterns(pats);
        SignatureCapture scap(nl, opts.misr, words);
        const SignatureLog slog0 = scap.inject(pats, f0);
        const SignatureLog slog1 = scap.inject(pats, f1);

        const std::string tag =
            profile.name + " W=" + std::to_string(words) +
            " T=" + std::to_string(threads);

        // Interleave every engine through the one session, repeating the
        // first diagnosis at the end: reuse must never change a result.
        const DiagnosisResult full_a = session.diagnose(Evidence(log0));
        const DiagnosisResult compact_a = session.diagnose(Evidence(slog1));
        const std::vector<double> obs = session.observability().values();
        std::vector<Logic> pi(nl.inputs().size(), Logic::X);
        std::vector<Logic> mux(nl.dffs().size(), Logic::X);
        const FillResult fill = session.fill(pi, mux, eligible);
        const DiagnosisResult full_b = session.diagnose(Evidence(log1));
        const DiagnosisResult compact_b = session.diagnose(Evidence(slog0));
        const DiagnosisResult full_a2 = session.diagnose(Evidence(log0));
        expect_same_result(full_a, full_a2, tag + " repeat");

        // One-shot references with identical options.
        Diagnoser one_shot(nl, opts.diag);
        expect_same_result(full_a, one_shot.diagnose(pats, faults, log0),
                           tag + " full0");
        expect_same_result(full_b, one_shot.diagnose(pats, faults, log1),
                           tag + " full1");
        SignatureDiagnoser one_shot_sig(nl, opts.diag);
        expect_same_result(compact_a,
                           one_shot_sig.diagnose(pats, faults, slog1),
                           tag + " compact1");
        expect_same_result(compact_b,
                           one_shot_sig.diagnose(pats, faults, slog0),
                           tag + " compact0");

        const LeakageObservability obs_ref(nl, session.leakage_model(),
                                           opts.observability);
        ASSERT_EQ(obs.size(), obs_ref.values().size()) << tag;
        for (std::size_t g = 0; g < obs.size(); ++g) {
          ASSERT_EQ(obs[g], obs_ref.values()[g]) << tag << " gate " << g;
        }

        std::vector<Logic> pi_ref(nl.inputs().size(), Logic::X);
        std::vector<Logic> mux_ref(nl.dffs().size(), Logic::X);
        const FillResult fill_ref = fill_dont_cares_min_leakage(
            nl, session.leakage_model(), pi_ref, mux_ref, eligible, opts.fill);
        EXPECT_EQ(fill.best_leakage_na, fill_ref.best_leakage_na) << tag;
        EXPECT_EQ(pi, pi_ref) << tag;
        EXPECT_EQ(mux, mux_ref) << tag;

        // Rankings are additionally bit-identical across configurations.
        EXPECT_GE(full_a.rank_of(f0), 1u) << tag;
        if (!have_ref) {
          ref_full = full_a;
          ref_compact = compact_a;
          have_ref = true;
        } else {
          expect_same_result(full_a, ref_full, tag + " cross-config full");
          expect_same_result(compact_a, ref_compact,
                             tag + " cross-config compact");
        }
      }
    }
  }
}

// ---------- diagnose_batch ---------------------------------------------------

// A mixed batch on a concurrent (4-worker) pool must reproduce sequential
// diagnose() results in input order. Run under TSan, this is the data-race
// check for the batch fan-out (logs scored concurrently by different
// workers against the shared good-block cache).
TEST(SessionBatchTest, ConcurrentMixedBatchMatchesSequential) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s713"));
  const auto faults = collapse_faults(nl);
  const auto pats = random_patterns(nl, 96, 0xba7c4);

  FlowOptions opts;
  opts.diag.num_threads = 4;
  opts.misr.window = 16;
  ScanSession session(Netlist(nl), opts);
  session.bind_patterns(pats);

  // 8 full logs + 2 signature logs, all from distinct injected faults.
  std::vector<Evidence> evidence;
  std::vector<Fault> injected;
  for (std::size_t fi = 3; fi < faults.size() && injected.size() < 10;
       fi += 97) {
    const Fault f = faults[fi];
    if (injected.size() % 5 == 4) {
      const SignatureLog slog = session.inject_compacted(f);
      if (slog.num_failing_windows() == 0) continue;
      evidence.push_back(slog);
    } else {
      const FailureLog log = session.inject(f);
      if (log.failures.empty()) continue;
      evidence.push_back(log);
    }
    injected.push_back(f);
  }
  ASSERT_GE(evidence.size(), 6u);

  const std::vector<DiagnosisResult> batch = session.diagnose_batch(evidence);
  ASSERT_EQ(batch.size(), evidence.size());
  // The sequential reference starts cold: the batch filled `session`'s
  // signature diff table, so its compacted entries would sweep nothing.
  ScanSession cold(Netlist(nl), opts);
  cold.bind_patterns(pats);
  for (std::size_t i = 0; i < evidence.size(); ++i) {
    const DiagnosisResult seq = cold.diagnose(evidence[i]);
    expect_same_result(batch[i], seq, "batch entry " + std::to_string(i));
    EXPECT_EQ(batch[i].rank_of(injected[i]), 1u) << i;
    // Work counts do not depend on the schedule or the thread count.
    EXPECT_EQ(batch[i].stats.sweep_calls, seq.stats.sweep_calls) << i;
    EXPECT_EQ(batch[i].stats.sweep_aborts, seq.stats.sweep_aborts) << i;
  }

  // A single-worker session produces the identical batch.
  FlowOptions serial = opts;
  serial.diag.num_threads = 1;
  ScanSession session1(Netlist(nl), serial);
  session1.bind_patterns(pats);
  const std::vector<DiagnosisResult> batch1 = session1.diagnose_batch(evidence);
  ASSERT_EQ(batch1.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_same_result(batch[i], batch1[i],
                       "T=1 vs T=4 batch entry " + std::to_string(i));
  }

  EXPECT_TRUE(session.diagnose_batch({}).empty());
}

// Batch scoring must also agree past the good-block cache cap (streaming
// path): many single-word blocks force per-worker streaming simulators.
TEST(SessionBatchTest, StreamingBatchMatchesSequential) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto faults = collapse_faults(nl);
  // > 256 blocks at W=1.
  const auto pats = random_patterns(nl, 300 * 64 + 9, 0x57e0);

  FlowOptions opts;
  opts.diag.block_words = 1;
  opts.diag.num_threads = 4;
  ScanSession session(Netlist(nl), opts);
  session.bind_patterns(pats);

  std::vector<Evidence> evidence;
  std::vector<Fault> injected;
  for (std::size_t fi = 11; fi < faults.size() && injected.size() < 3;
       fi += 241) {
    const FailureLog log = session.inject(faults[fi]);
    if (log.failures.empty()) continue;
    evidence.push_back(log);
    injected.push_back(faults[fi]);
  }
  ASSERT_GE(evidence.size(), 2u);

  const std::vector<DiagnosisResult> batch = session.diagnose_batch(evidence);
  for (std::size_t i = 0; i < evidence.size(); ++i) {
    const DiagnosisResult seq = session.diagnose(evidence[i]);
    expect_same_result(batch[i], seq,
                       "streaming batch entry " + std::to_string(i));
    EXPECT_EQ(batch[i].rank_of(injected[i]), 1u);
    EXPECT_EQ(batch[i].stats.sweep_calls, seq.stats.sweep_calls) << i;
    EXPECT_EQ(batch[i].stats.sweep_aborts, seq.stats.sweep_aborts) << i;
  }
}

// ---------- signature diff table ---------------------------------------------

// The per-configuration signature diff table is a cache, so no result may
// depend on what it holds. For every benchgen profile and every
// (block_words, num_threads) in {1,4}x{1,4}, one session diagnoses
// signature logs of two MISR configurations alternately, first in one
// order and then in the reverse one, rebinds to an X-carrying pattern set
// (masked windows give each log a different pruned set, so the table
// fills only partly) and back, and runs a batch mixing full and signature
// logs. Every result must equal, field by field, the standalone engine's
// (SignatureDiagnoser::diagnose, or Diagnoser for full logs, whose results
// sequential diagnose() calls are pinned to above). Each query's table
// hits plus fills must equal its candidates, and a query that fills
// nothing must run no sweep.
TEST(SessionDiffTableTest, CompactedResultsMatchStandaloneOnAllProfiles) {
  const MisrConfig cfg_a{.width = 16, .window = 8};
  const MisrConfig cfg_b{.width = 32, .window = 16};
  for (const SynthProfile& profile : iscas89_profiles()) {
    const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(profile.name));
    const auto faults = collapse_faults(nl);
    const auto pats = random_patterns(nl, 48, 0xd1ff + profile.seed);
    auto xpats = random_patterns(nl, 48, 0xd1ff0 + profile.seed);
    Rng xr(profile.seed);
    for (TestPattern& p : xpats) {
      for (Logic& v : p.pi) {
        if (xr.next_below(4) == 0) v = Logic::X;
      }
      for (Logic& v : p.ppi) {
        if (xr.next_below(16) == 0) v = Logic::X;
      }
    }

    // Logs of distinct faults that fail at least one window (or record a
    // failure), and their standalone references.
    SignatureDiagnoser one_shot_sig(nl, DiagnosisOptions{.num_threads = 0});
    Diagnoser one_shot(nl, DiagnosisOptions{.num_threads = 0});
    const std::size_t stride = faults.size() / 256 + 1;
    std::size_t next = 7;
    const auto pick_logs = [&](const MisrConfig& cfg,
                               const std::vector<TestPattern>& p,
                               std::size_t count) {
      SignatureCapture cap(nl, cfg, 4);
      std::vector<std::pair<SignatureLog, DiagnosisResult>> out;
      for (; next < faults.size() && out.size() < count; next += stride) {
        SignatureLog log = cap.inject(p, faults[next]);
        if (log.num_failing_windows() == 0) continue;
        DiagnosisResult ref = one_shot_sig.diagnose(p, faults, log);
        out.emplace_back(std::move(log), std::move(ref));
      }
      return out;
    };
    const auto a = pick_logs(cfg_a, pats, 3);
    const auto b = pick_logs(cfg_b, pats, 2);
    // Fewest candidates first, so that later X logs need rows the first
    // one did not fill.
    auto x = pick_logs(cfg_a, xpats, 3);
    std::sort(x.begin(), x.end(), [](const auto& l, const auto& r) {
      return l.second.num_candidates < r.second.num_candidates;
    });
    ASSERT_EQ(a.size() + b.size() + x.size(), 8u) << profile.name;
    ResponseCapture cap(nl, 4);
    std::vector<std::pair<FailureLog, DiagnosisResult>> full;
    for (; next < faults.size() && full.size() < 2; next += stride) {
      FailureLog log = cap.inject(pats, faults[next]);
      if (log.failures.empty()) continue;
      DiagnosisResult ref = one_shot.diagnose(pats, faults, log);
      full.emplace_back(std::move(log), std::move(ref));
    }
    ASSERT_EQ(full.size(), 2u) << profile.name;

    std::size_t partial = 0;  // queries with both hits and fills
    for (int words : {1, 4}) {
      for (int threads : {1, 4}) {
        FlowOptions opts;
        opts.diag.block_words = words;
        opts.diag.num_threads = threads;
        ScanSession session(Netlist(nl), opts);
        const std::string tag = profile.name + " W=" + std::to_string(words) +
                                " T=" + std::to_string(threads);
        const auto check = [&](const std::pair<SignatureLog, DiagnosisResult>&
                                   entry,
                               const std::string& what) {
          const MetricsSnapshot before = session.metrics();
          const DiagnosisResult res = session.diagnose(Evidence(entry.first));
          const MetricsSnapshot after = session.metrics();
          expect_same_fields(res, entry.second, tag + " " + what);
          if (!kTelemetryEnabled) return;
          const std::uint64_t hits =
              after.counter(CounterId::kCompactDiffCacheHits) -
              before.counter(CounterId::kCompactDiffCacheHits);
          const std::uint64_t fills =
              after.counter(CounterId::kCompactDiffCacheFills) -
              before.counter(CounterId::kCompactDiffCacheFills);
          EXPECT_EQ(hits + fills, res.num_candidates) << tag << " " << what;
          if (fills == 0) {
            EXPECT_EQ(res.stats.sweep_calls, 0u) << tag << " " << what;
          }
          if (hits != 0 && fills != 0) ++partial;
        };

        session.bind_patterns(pats);
        check(a[0], "A0");
        check(b[0], "B0");
        check(a[1], "A1");
        check(b[1], "B1");
        check(a[2], "A2");
        check(a[2], "A2 again");
        check(b[1], "B1 again");
        check(a[1], "A1 again");
        check(b[0], "B0 again");
        check(a[0], "A0 again");

        session.bind_patterns(xpats);
        check(x[0], "X0");
        check(x[1], "X1");
        check(x[2], "X2");
        check(x[0], "X0 again");

        session.bind_patterns(pats);
        check(a[1], "A1 after rebind");
        check(b[0], "B0 after rebind");

        const std::vector<Evidence> batch_in = {
            Evidence(full[0].first), Evidence(a[2].first),
            Evidence(b[1].first), Evidence(full[1].first),
            Evidence(a[0].first)};
        const std::vector<DiagnosisResult> batch =
            session.diagnose_batch(batch_in);
        ASSERT_EQ(batch.size(), batch_in.size());
        expect_same_result(batch[0], full[0].second, tag + " batch F0");
        expect_same_fields(batch[1], a[2].second, tag + " batch A2");
        expect_same_fields(batch[2], b[1].second, tag + " batch B1");
        expect_same_result(batch[3], full[1].second, tag + " batch F1");
        expect_same_fields(batch[4], a[0].second, tag + " batch A0");
      }
    }
    if (kTelemetryEnabled) {
      EXPECT_GT(partial, 0u) << profile.name;
    }
  }
}

// A one-log batch runs diagnose()'s pipeline, so on two fresh sessions it
// must add exactly what diagnose() adds to the registry and record the
// same diagnosis spans: the shared query epilogue can neither drop nor
// double-count. The log is a fault pair no single candidate explains, so
// the union fallback and the multiplet cover run and feed their counters.
TEST(SessionBatchTest, SingleLogBatchCountsLikeDiagnose) {
  if (!kTelemetryEnabled) GTEST_SKIP() << "telemetry compiled out";
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s382"));
  const auto faults = collapse_faults(nl);
  const auto pats = random_patterns(nl, 96, 0x1b47c);
  FlowOptions opts;
  opts.diag.num_threads = 4;

  ResponseCapture cap(nl, opts.diag.block_words);
  Diagnoser probe(nl, opts.diag);
  FailureLog log;
  for (std::size_t i = 0; i < faults.size() && log.failures.empty();
       i += 37) {
    const std::vector<Fault> pair = {faults[i],
                                     faults[(i * 7 + 101) % faults.size()]};
    if (pair[0].gate == pair[1].gate) continue;
    FailureLog cand = cap.inject(pats, std::span<const Fault>(pair));
    if (cand.failures.empty()) continue;
    const DiagnosisResult r = probe.diagnose(pats, faults, cand);
    if (r.union_fallback && !r.multiplets.empty()) log = std::move(cand);
  }
  ASSERT_FALSE(log.failures.empty()) << "no fault pair takes the fallback";

  const std::vector<CounterId> counters = {
      CounterId::kDiagQueries,      CounterId::kDiagCandidates,
      CounterId::kDiagDropped,      CounterId::kDiagUnionFallbacks,
      CounterId::kDiagMultiplets,   CounterId::kSweepCalls,
      CounterId::kSweepUnexcited,   CounterId::kSweepConeGates,
      CounterId::kSweepActiveGates, CounterId::kSweepAborts};
  struct Run {
    DiagnosisResult res;
    std::vector<std::uint64_t> deltas;  ///< `counters`, then the histogram
    std::vector<std::string> spans;     ///< "name@shard/depth", close order
  };
  const auto run = [&](bool batch) {
    ScanSession session(Netlist(nl), opts);
    session.bind_patterns(pats);
    session.telemetry().trace.set_enabled(true);
    const std::vector<Evidence> evidence = {Evidence(log)};
    const MetricsSnapshot before = session.metrics();
    Run r;
    r.res = batch ? session.diagnose_batch(evidence).at(0)
                  : session.diagnose(evidence[0]);
    const MetricsSnapshot after = session.metrics();
    for (CounterId id : counters) {
      r.deltas.push_back(after.counter(id) - before.counter(id));
    }
    r.deltas.push_back(after.hist_count(HistId::kDiagnoseUs) -
                       before.hist_count(HistId::kDiagnoseUs));
    for (const TraceEvent& e : session.telemetry().trace.events()) {
      const std::string name = e.name;
      if (name == "diagnose" || name == "prune" || name == "score" ||
          name == "cover") {
        r.spans.push_back(name + "@" + std::to_string(e.shard) + "/" +
                          std::to_string(e.depth));
      }
    }
    return r;
  };
  const Run seq = run(false);
  const Run one = run(true);

  expect_same_result(one.res, seq.res, "one-log batch");
  EXPECT_TRUE(seq.res.union_fallback);
  EXPECT_EQ(one.deltas, seq.deltas);
  EXPECT_EQ(one.spans, seq.spans);
  EXPECT_EQ(seq.deltas[0], 1u);               // one query
  EXPECT_EQ(seq.deltas[3], 1u);               // one union fallback
  EXPECT_EQ(seq.deltas.back(), 1u);           // one latency sample
  EXPECT_EQ(seq.deltas[5], seq.res.stats.sweep_calls);
  EXPECT_EQ(seq.spans.size(), 4u);
}

}  // namespace
}  // namespace scanpower
