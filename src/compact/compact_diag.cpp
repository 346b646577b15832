#include "compact/compact_diag.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "util/assert.hpp"

namespace scanpower {

namespace {

/// Structural validation shared by diagnose() and diagnose_with(): the
/// log must cover the applied pattern set and be internally consistent
/// before any plan/signature work is spent on it.
void check_signature_log(std::span<const TestPattern> patterns,
                         const SignatureLog& log) {
  SP_CHECK(log.num_patterns == patterns.size(),
           "diagnose: signature log covers a different pattern count");
  SP_CHECK(log.num_windows() == log.misr.num_windows(patterns.size()) &&
               log.observed.size() == log.expected.size(),
           "diagnose: malformed signature log");
}

}  // namespace

/// Per-worker scratch for the parallel candidate sweep (the cone-sweep
/// evaluators live in the engine state). Each candidate's predicted
/// signature diff is accumulated into `diff_sigs` and matched against the
/// log's window signatures. Cache-line aligned: workers sit side by side
/// in one vector.
struct alignas(64) SignatureDiagnoser::Worker {
  std::vector<std::uint64_t> diff_sigs;   ///< per window
  std::unique_ptr<BlockSimulator> stream; ///< good-block streaming scratch
};

SignatureDiagnoser::SignatureDiagnoser(const Netlist& nl, DiagnosisOptions opts)
    : opts_(opts), eng_(nl, "SignatureDiagnoser", opts_),
      workers_(eng_.evals.size()) {}

SignatureDiagnoser::SignatureDiagnoser(const Netlist& nl, DiagnosisOptions opts,
                                       ThreadPool& pool,
                                       const ObservationPoints& points,
                                       ObservationConeCache& cones,
                                       GoodBlockCache& goods)
    : opts_(opts),
      eng_(nl, "SignatureDiagnoser", opts_, pool, points, cones, goods),
      workers_(eng_.evals.size()) {}

SignatureDiagnoser::~SignatureDiagnoser() = default;

std::vector<std::uint32_t> SignatureDiagnoser::prune_candidates(
    std::span<const Fault> faults, const SignatureLog& log,
    const XMaskPlan& plan) {
  // A failing window names no failing point, so the candidate must lie in
  // the union of every unmasked point's cone for that window. Distinct
  // unmasked sets are deduplicated before intersecting; without X-masking
  // every failing window shares the full point set and the union is built
  // once.
  std::vector<std::vector<std::uint32_t>> op_sets;
  for (std::size_t w = 0; w < log.num_windows(); ++w) {
    if (!log.window_fails(w)) continue;
    std::vector<std::uint32_t> ops;
    for (std::size_t op = 0; op < eng_.points->size(); ++op) {
      if (!plan.masked(op, w)) ops.push_back(static_cast<std::uint32_t>(op));
    }
    op_sets.push_back(std::move(ops));
  }
  std::sort(op_sets.begin(), op_sets.end());
  op_sets.erase(std::unique(op_sets.begin(), op_sets.end()), op_sets.end());

  return prune_by_cone_unions(*eng_.nl, *eng_.cones, faults, op_sets);
}

template <int W>
void SignatureDiagnoser::score_candidates(
    std::span<const TestPattern> patterns, std::span<const Fault> faults,
    std::span<const std::uint32_t> candidates, const SignatureLog& log,
    const XMaskPlan& plan, std::vector<CandidateScore>& scores) {
  const ObservationPoints& points = *eng_.points;
  const GoodBlockCache& goods = *eng_.goods;
  const std::size_t lanes = static_cast<std::size_t>(W) * 64;
  const std::size_t nblocks = goods.num_blocks();
  const std::size_t nwin = log.num_windows();
  const std::size_t num_workers = eng_.evals.size();

  std::vector<std::uint64_t> obs_diff(nwin);
  for (std::size_t w = 0; w < nwin; ++w) {
    obs_diff[w] = log.observed[w] ^ log.expected[w];
  }

  // What a lone diff bit adds to its window's signature, by point and by
  // the number of patterns of its window that follow it; per pattern, its
  // window and that number.
  const Misr misr(log.misr);
  const std::size_t depth =
      std::min(static_cast<std::size_t>(log.misr.window), patterns.size());
  const std::vector<std::uint64_t> bit_sigs =
      misr.bit_signatures(points.size(), patterns.size());
  std::vector<std::uint32_t> win_of(patterns.size());
  std::vector<std::uint32_t> follow(patterns.size());
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const std::size_t w = p / depth;
    const std::size_t len = std::min(depth, patterns.size() - w * depth);
    win_of[p] = static_cast<std::uint32_t>(w);
    follow[p] = static_cast<std::uint32_t>(len - 1 - (p - w * depth));
  }

  // Candidates round-robin across workers: each score slot has exactly
  // one writer, and a candidate's counters depend only on its own full
  // diff (XOR is order-free), so the ranking is bit-identical for every
  // (block width, thread count) configuration. Good-machine blocks come
  // from the shared cache; past its cap each worker streams them through
  // its own simulator (the values are identical either way).
  eng_.pool->run_on_all([&](int t) {
    Worker& wk = workers_[static_cast<std::size_t>(t)];
    FaultConeEvaluator& ev = eng_.evals[static_cast<std::size_t>(t)];
    wk.diff_sigs.resize(nwin);
    for (std::size_t ci = static_cast<std::size_t>(t); ci < candidates.size();
         ci += num_workers) {
      CandidateScore& sc = scores[ci];
      const Fault& f = faults[candidates[ci]];
      std::fill(wk.diff_sigs.begin(), wk.diff_sigs.end(), 0);
      for (std::size_t b = 0; b < nblocks; ++b) {
        const std::size_t base = b * lanes;
        const std::size_t batch = std::min(lanes, patterns.size() - base);
        const BlockSimulator& good = goods.fetch(b, wk.stream);
        const PackedBlock<W> mask = lane_validity_mask<W>(batch);
        const std::size_t word0 = base / 64;
        const std::size_t nwords = (batch + 63) / 64;
        ev.propagate<W>(
            good, f, mask, points.observable(),
            [&](GateId gate, const PatternWord* diff) {
              points.for_each_sink_point(f, gate, [&](std::uint32_t op) {
                const std::uint64_t* sigs = bit_sigs.data() + op * depth;
                const PatternWord* keep = plan.keep_row(op);
                for (std::size_t w = 0; w < nwords; ++w) {
                  // Lane-masked: every set bit is a real pattern.
                  PatternWord bits = diff[w];
                  if (keep) bits &= keep[word0 + w];
                  const std::size_t p0 = (word0 + w) * 64;
                  while (bits != 0) {
                    const std::size_t p =
                        p0 + static_cast<std::size_t>(std::countr_zero(bits));
                    bits &= bits - 1;
                    wk.diff_sigs[win_of[p]] ^= sigs[follow[p]];
                  }
                }
              });
            });
      }
      for (std::size_t w = 0; w < nwin; ++w) {
        const std::uint64_t d = wk.diff_sigs[w];
        if (obs_diff[w] != 0) {
          if (d == obs_diff[w]) {
            ++sc.tfsf;
          } else if (d == 0) {
            ++sc.tfsp;
          } else {
            ++sc.tfsp;  // fails the window, but with the wrong signature:
            ++sc.tpsf;  // unexplained observation AND a misprediction
          }
        } else if (d != 0) {
          ++sc.tpsf;
        }
      }
    }
  });
}

DiagnosisResult SignatureDiagnoser::diagnose(
    std::span<const TestPattern> patterns, std::span<const Fault> faults,
    const SignatureLog& log) {
  check_signature_log(patterns, log);

  // Rebuild the X-mask plan and the expected signatures from the good
  // machine -- the per-call state a ScanSession caches per MISR
  // configuration and feeds to diagnose_with() directly.
  const MisrCompactor compactor(log.misr, opts_.block_words);
  const XMaskPlan plan(*eng_.nl, *eng_.points, patterns, log.misr.window,
                       opts_.block_words, opts_.backend);
  const std::vector<TestPattern> filled = zero_filled_patterns(patterns);
  const std::span<const TestPattern> sim_patterns =
      filled.empty() ? patterns : std::span<const TestPattern>(filled);
  ResponseCapture capture(*eng_.nl, opts_.block_words, opts_.backend);
  const ResponseMatrix good = capture.capture_good(sim_patterns);
  const std::vector<std::uint64_t> expected = compactor.compact(good, &plan);

  return diagnose_with(sim_patterns, faults, log, plan, expected);
}

DiagnosisResult SignatureDiagnoser::diagnose_with(
    std::span<const TestPattern> patterns, std::span<const Fault> faults,
    const SignatureLog& log, const XMaskPlan& plan,
    std::span<const std::uint64_t> expected) {
  check_signature_log(patterns, log);
  // A mismatch between the log's expected signatures and the good machine
  // means the log was recorded for different patterns or a different MISR
  // configuration, which would silently wreck every score.
  SP_CHECK(std::equal(expected.begin(), expected.end(), log.expected.begin(),
                      log.expected.end()),
           "diagnose: signature log's expected signatures do not match the "
           "good machine (wrong pattern set or MISR configuration?)");
  eng_.ensure_goods(patterns, opts_);

  Telemetry* const telem = opts_.telemetry;
  DiagnosisResult res;
  std::uint64_t total_us = 0;
  const DiagnosisEngine::ConeMark cones0 = eng_.cone_mark();
  {
    TraceSpan span_all(telem, "compact_diagnose", 0, CounterId::kCount,
                       &total_us);
    res.num_faults = faults.size();
    res.num_windows = log.num_windows();
    res.num_failing_windows = log.num_failing_windows();
    res.num_failures = res.num_failing_windows;
    res.num_masked = plan.num_masked();

    std::vector<std::uint32_t> candidates;
    {
      TraceSpan span(telem, "prune", 0, CounterId::kDiagPruneUs,
                     &res.stats.prune_us);
      if (opts_.cone_pruning) {
        candidates = prune_candidates(faults, log, plan);
      } else {
        candidates.resize(faults.size());
        std::iota(candidates.begin(), candidates.end(), 0u);
      }
    }
    res.num_candidates = candidates.size();

    std::vector<CandidateScore> scores(candidates.size());
    for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
      scores[ci].fault = faults[candidates[ci]];
      scores[ci].fault_index = candidates[ci];
    }

    {
      TraceSpan span(telem, "score", 0, CounterId::kDiagScoreUs,
                     &res.stats.score_us);
      dispatch_block_words(opts_.block_words, [&](auto w) {
        score_candidates<decltype(w)::value>(patterns, faults, candidates,
                                             log, plan, scores);
      });
    }

    std::sort(scores.begin(), scores.end());
    res.ranked = std::move(scores);

    if constexpr (kTelemetryEnabled) {
      const FaultConeEvaluator::SweepStats s =
          drain_sweep_stats(telem, eng_.evals);
      res.stats.sweep_calls = s.calls;
      res.stats.sweep_aborts = s.aborts;
    }
    eng_.store_cone_lookups(cones0, res.stats);
  }
  if constexpr (kTelemetryEnabled) {
    if (telem != nullptr) {
      telem->metrics.add(0, CounterId::kCompactQueries, 1);
      telem->metrics.add(0, CounterId::kCompactCandidates, res.num_candidates);
      telem->metrics.record_hist(HistId::kCompactDiagnoseUs, total_us);
    }
  }
  return res;
}

}  // namespace scanpower
