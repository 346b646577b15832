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

#include <gtest/gtest.h>

#include <string>
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
  for (std::size_t i = 0; i < evidence.size(); ++i) {
    const DiagnosisResult seq = session.diagnose(evidence[i]);
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
