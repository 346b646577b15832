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

/// Readies `t` to score `candidates` of `faults` against a log under
/// `cfg`: a first use or another fault list (re)allocates the rows, and
/// the sweep tables are built once some candidate has no row. Returns the
/// number of candidates whose rows are already filled.
std::size_t prepare_diff_table(SignatureDiffTable& t,
                               std::span<const Fault> faults,
                               std::span<const std::uint32_t> candidates,
                               const MisrConfig& cfg, std::size_t num_points,
                               std::size_t num_patterns) {
  if (!std::ranges::equal(t.faults, faults)) {
    t.faults.assign(faults.begin(), faults.end());
    const std::size_t words = faults.size() * cfg.num_windows(num_patterns);
    const bool keep = words <= SignatureDiffTable::kMaxWords;
    t.rows.assign(keep ? words : 0, 0);
    t.filled.assign(keep ? faults.size() : 0, 0);
  }
  const std::size_t hits =
      t.filled.empty()
          ? 0
          : static_cast<std::size_t>(std::count_if(
                candidates.begin(), candidates.end(),
                [&](std::uint32_t fi) { return t.filled[fi] != 0; }));
  if (hits < candidates.size() && t.bit_sigs.empty()) {
    t.depth = std::min(static_cast<std::size_t>(cfg.window), num_patterns);
    t.bit_sigs = Misr(cfg).bit_signatures(num_points, num_patterns);
    t.win_of.resize(num_patterns);
    t.follow.resize(num_patterns);
    for (std::size_t p = 0; p < num_patterns; ++p) {
      const std::size_t w = p / t.depth;
      const std::size_t len = std::min(t.depth, num_patterns - w * t.depth);
      t.win_of[p] = static_cast<std::uint32_t>(w);
      t.follow[p] = static_cast<std::uint32_t>(len - 1 - (p - w * t.depth));
    }
  }
  return hits;
}

}  // namespace

/// Per-worker scratch for the parallel candidate sweep (the cone-sweep
/// evaluators live in the engine state). A swept candidate's predicted
/// signature diff is accumulated into its diff-table row, or into
/// `diff_sigs` when the table keeps no rows. Cache-line aligned: workers
/// sit side by side in one vector.
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
    const XMaskPlan& plan, SignatureDiffTable& table,
    std::vector<CandidateScore>& scores) {
  const ObservationPoints& points = *eng_.points;
  const GoodBlockCache& goods = *eng_.goods;
  const std::size_t lanes = static_cast<std::size_t>(W) * 64;
  const std::size_t nblocks = goods.num_blocks();
  const std::size_t nwin = log.num_windows();
  const std::size_t num_workers = eng_.evals.size();
  const bool keep_rows = !table.filled.empty();

  std::vector<std::uint64_t> obs_diff(nwin);
  for (std::size_t w = 0; w < nwin; ++w) {
    obs_diff[w] = log.observed[w] ^ log.expected[w];
  }

  const std::size_t depth = table.depth;
  const std::uint64_t* const bit_sigs = table.bit_sigs.data();
  const std::uint32_t* const win_of = table.win_of.data();
  const std::uint32_t* const follow = table.follow.data();

  // Candidates round-robin across workers: each score slot and table row
  // has exactly one writer, and a candidate's counters depend only on its
  // own full diff (XOR is order-free), so the ranking is bit-identical for
  // every (block width, thread count) configuration and table history.
  // Good-machine blocks come from the shared cache; past its cap each
  // worker streams them through its own simulator (the values are
  // identical either way).
  eng_.pool->run_on_all([&](int t) {
    Worker& wk = workers_[static_cast<std::size_t>(t)];
    FaultConeEvaluator& ev = eng_.evals[static_cast<std::size_t>(t)];
    if (!keep_rows) wk.diff_sigs.resize(nwin);
    for (std::size_t ci = static_cast<std::size_t>(t); ci < candidates.size();
         ci += num_workers) {
      CandidateScore& sc = scores[ci];
      const std::uint32_t fi = candidates[ci];
      const Fault& f = faults[fi];
      std::uint64_t* const sigs =
          keep_rows ? table.rows.data() + fi * nwin : wk.diff_sigs.data();
      if (!keep_rows || !table.filled[fi]) {
        std::fill(sigs, sigs + nwin, 0);
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
                  const std::uint64_t* op_sigs = bit_sigs + op * depth;
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
                      sigs[win_of[p]] ^= op_sigs[follow[p]];
                    }
                  }
                });
              });
        }
        if (keep_rows) table.filled[fi] = 1;
      }
      for (std::size_t w = 0; w < nwin; ++w) {
        const std::uint64_t d = sigs[w];
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
  // A compaction state for this call only: the recipe a ScanSession runs
  // once per MISR configuration.
  SignatureCapture state(*eng_.nl, log.misr, opts_.block_words, opts_.backend);
  state.bind(patterns);
  return diagnose_with(state.effective_patterns(), faults, log, state);
}

DiagnosisResult SignatureDiagnoser::diagnose_with(
    std::span<const TestPattern> patterns, std::span<const Fault> faults,
    const SignatureLog& log, SignatureCapture& state) {
  check_signature_log(patterns, log);
  SP_CHECK(log.misr == state.config() &&
               patterns.size() == state.effective_patterns().size(),
           "diagnose: the compaction state is bound to another MISR "
           "configuration or pattern count than the signature log");
  // A mismatch between the log's expected signatures and the good machine
  // means the log was recorded for different patterns or a different MISR
  // configuration, which would silently wreck every score.
  SP_CHECK(std::equal(state.expected().begin(), state.expected().end(),
                      log.expected.begin(), log.expected.end()),
           "diagnose: signature log's expected signatures do not match the "
           "good machine (wrong pattern set or MISR configuration?)");
  eng_.ensure_goods(patterns, opts_);
  const XMaskPlan& plan = state.mask();

  Telemetry* const telem = opts_.telemetry;
  DiagnosisResult res;
  std::uint64_t total_us = 0;
  std::size_t diff_hits = 0;
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
      SignatureDiffTable& table = state.diff_table();
      diff_hits = prepare_diff_table(table, faults, candidates, log.misr,
                                     eng_.points->size(), patterns.size());
      dispatch_block_words(opts_.block_words, [&](auto w) {
        score_candidates<decltype(w)::value>(patterns, faults, candidates,
                                             log, plan, table, scores);
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
      telem->metrics.add(0, CounterId::kCompactDiffCacheHits, diff_hits);
      telem->metrics.add(0, CounterId::kCompactDiffCacheFills,
                         res.num_candidates - diff_hits);
      telem->metrics.record_hist(HistId::kCompactDiagnoseUs, total_us);
    }
  }
  return res;
}

}  // namespace scanpower
