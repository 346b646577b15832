#pragma once
// Cause-effect stuck-at diagnosis: which fault explains a failure log?
//
// Two stages, both built on the packed simulation engine:
//
//  1. Candidate generation -- structural pruning. A single stuck-at fault
//     can only corrupt observation points whose fanin cone contains the
//     fault site, so for every failing pattern the candidate must lie in
//     the union of the failing points' fanin cones, and therefore in the
//     intersection of those unions across failing patterns. Distinct
//     failing-point sets are deduplicated before intersecting, so the
//     back-trace cost scales with response diversity, not pattern count.
//
//  2. Candidate ranking -- packed per-candidate simulation. Every
//     surviving candidate is injected into the faulty machine (reusing
//     FaultConeEvaluator's sparse cone sweep) and its predicted failures
//     are compared against the observed log with SLAT-style match
//     counters over (pattern, observation point) pairs:
//       TFSF  tester-fail, simulation-fail   (explained failures)
//       TFSP  tester-fail, simulation-pass   (unexplained failures)
//       TPSF  tester-pass, simulation-fail   (mispredicted failures)
//     Ranking: exact matches (TFSP = TPSF = 0) first, then ascending
//     Hamming distance (TFSP + TPSF), then descending TFSF, ties broken
//     by candidate index. Candidates are scored round-robin across the
//     worker pool; every counter is a popcount sum over disjoint words,
//     so results are bit-identical for every (block width, thread count)
//     configuration.
//
// When the best single candidate leaves failures unexplained (a noisy
// log, or more than one real defect), a noise-recovery stage runs after
// ranking:
//
//  3. Union-pruning fallback -- the intersection back-trace of stage 1 is
//     only sound for a single fault (with two defects, no single cone
//     union need contain either site for *every* failing pattern). When
//     the top-ranked candidate's TFSP exceeds noise_tolerance, pruning
//     falls back to the union of all failing points' cones and rescoring
//     runs over the enlarged candidate set -- the graceful, automatic
//     form of the manual all-or-nothing cone_pruning = false escape
//     hatch.
//
//  4. Multiplet cover -- SLAT-style per-pattern partitioning. Each
//     shortlisted candidate's predicted response is replayed; a failing
//     pattern is "explained exactly" by a candidate iff the candidate's
//     predicted failures match the observed failures on that pattern at
//     every observation point. A greedy set cover over that partition
//     emits ranked suspect *sets* (DiagnosisResult::multiplets) -- pairs
//     (or small sets) of candidates that jointly explain the log when no
//     single candidate does. Clean single-fault logs skip both stages
//     (the top candidate explains everything), so the single-fault path
//     pays nothing.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/pattern.hpp"
#include "diag/response.hpp"
#include "netlist/netlist.hpp"
#include "util/thread_pool.hpp"

namespace scanpower {

/// Shared cone-union back-trace used by both diagnosers: a candidate
/// survives iff its site gate lies, for every op set, in the union of
/// that set's observation-point cones. Full-response diagnosis passes
/// one set per distinct failing-point pattern; compacted diagnosis one
/// set of unmasked points per distinct failing window. Callers
/// deduplicate `op_sets` (identical sets contribute identical unions).
std::vector<std::uint32_t> prune_by_cone_unions(
    const Netlist& nl, ObservationConeCache& cones,
    std::span<const Fault> faults,
    const std::vector<std::vector<std::uint32_t>>& op_sets);

struct DiagnosisOptions {
  /// Pattern words per simulation block (1, 2, 4 or 8;
  /// is_valid_block_words).
  int block_words = 4;
  /// Kernel backend for the packed sweeps; Auto = best available.
  /// Results are bit-identical across backends.
  SimBackend backend = SimBackend::Auto;
  /// Worker count for candidate scoring. 1 = serial; 0 = hardware
  /// concurrency.
  int num_threads = 1;
  /// Fanin-cone back-trace pruning before scoring. Disable to score the
  /// entire fault list (diagnosing logs with suspected multiple faults).
  bool cone_pruning = true;
  /// Early-exit during scoring (mirrors fault dropping in the simulator):
  /// TPSF only grows as a candidate's cone sweep tallies observation
  /// points, so a candidate whose running TPSF already exceeds the best
  /// completed Hamming distance (TFSP + TPSF) cannot win -- its sweep is
  /// aborted and its remaining pattern blocks skipped. Candidates are
  /// scored in fixed-size rounds and the best Hamming bound advances only
  /// at round boundaries, so the dropped set -- and the final ranking --
  /// stays bit-identical across every (block width, thread count)
  /// configuration. Dropped candidates keep canonical zero counters and
  /// rank after all fully scored candidates.
  bool score_early_exit = true;
  /// Tester-noise tolerance, in records: a candidate is not dropped by
  /// the scoring early-exit for mispredicting up to this many records
  /// beyond the best completed Hamming distance, and the noise-recovery
  /// stages only trigger when the top candidate leaves more than this
  /// many failures unexplained. 0 = trust the log exactly.
  std::uint64_t noise_tolerance = 0;
  /// Noise recovery (union-pruning fallback + multiplet cover) when no
  /// single candidate explains the log within noise_tolerance.
  bool multiplets = true;
  /// Top-ranked candidates replayed for the multiplet cover.
  std::size_t multiplet_shortlist = 64;
  /// Maximum candidates per suspect set.
  std::size_t max_multiplet_size = 4;
  /// Maximum suspect sets reported (also the number of greedy seeds).
  std::size_t max_multiplets = 8;
  /// Optional metrics/trace scope (not owned; nullptr = no registry or
  /// trace output, but DiagnosisResult::stats is still populated).
  Telemetry* telemetry = nullptr;
};

/// Per-query telemetry carried on a DiagnosisResult. All-zero when the
/// library is built with SCANPOWER_TELEMETRY=OFF. Wall-clock fields are
/// non-deterministic by nature; the count fields equal what the query
/// added to the corresponding registry counters. Cone-cache deltas are
/// only attributed on serial prepare paths (single-log diagnose, and the
/// serial prepare phase of a batch); concurrent cache hits from batch
/// noise recovery are counted globally but not per query.
struct DiagnosisStats {
  std::uint64_t prune_us = 0;         ///< validate + back-trace pruning
  std::uint64_t score_us = 0;         ///< candidate ranking (first pass)
  std::uint64_t cover_us = 0;         ///< noise recovery: union rescore + cover
  std::uint64_t sweep_calls = 0;      ///< cone sweeps run for this query
  std::uint64_t sweep_aborts = 0;     ///< sweeps cut short by early-exit
  std::uint64_t cone_cache_hits = 0;
  std::uint64_t cone_cache_misses = 0;
};

/// One scored candidate fault.
struct CandidateScore {
  Fault fault;
  std::uint32_t fault_index = 0;  ///< index into the diagnosed fault list
  std::uint64_t tfsf = 0;         ///< tester fail & simulation fail
  std::uint64_t tfsp = 0;         ///< tester fail & simulation pass
  std::uint64_t tpsf = 0;         ///< tester pass & simulation fail
  /// Scoring was cut short: the candidate provably cannot beat the best
  /// explanation (see DiagnosisOptions::score_early_exit). Counters are
  /// canonical (tfsf = tpsf = 0, tfsp = total failures).
  bool dropped = false;

  bool exact() const { return !dropped && tfsp == 0 && tpsf == 0; }
  std::uint64_t hamming() const { return tfsp + tpsf; }

  /// Strict-weak "explains the log better" order (see header comment);
  /// dropped candidates rank after every fully scored one.
  friend bool operator<(const CandidateScore& a, const CandidateScore& b) {
    if (a.dropped != b.dropped) return !a.dropped;
    if (a.dropped) return a.fault_index < b.fault_index;
    if (a.hamming() != b.hamming()) return a.hamming() < b.hamming();
    if (a.tfsf != b.tfsf) return a.tfsf > b.tfsf;
    return a.fault_index < b.fault_index;
  }
};

/// One multi-fault suspect set: candidates that jointly explain the log.
/// `covered` counts failing patterns some member explains exactly (its
/// predicted failures equal the observed failures on that pattern at
/// every observation point); `uncovered` counts the rest -- residual
/// noise, or a defect outside the shortlist.
struct SuspectSet {
  std::vector<CandidateScore> members;  ///< greedy insertion order
  std::size_t covered = 0;
  std::size_t uncovered = 0;

  bool contains(const Fault& f) const;
};

struct DiagnosisResult {
  /// Every scored candidate, best explanation first.
  std::vector<CandidateScore> ranked;

  /// Ranked multi-fault suspect sets (best cover first). Empty when the
  /// top single candidate explains the log within noise_tolerance, when
  /// options disable multiplets, or for batch/compacted paths that do
  /// not run the cover. Bit-identical across every (block width, thread
  /// count) configuration, like `ranked`.
  std::vector<SuspectSet> multiplets;
  /// Cone pruning fell back from the per-pattern intersection to the
  /// union of all failing points' cones (multi-fault / noisy log).
  bool union_fallback = false;

  std::size_t num_faults = 0;            ///< fault universe diagnosed against
  std::size_t num_candidates = 0;        ///< survived cone pruning (= ranked.size())
  std::size_t num_dropped = 0;           ///< scoring cut short by early-exit
  std::size_t num_failures = 0;          ///< log entries (failing windows
                                         ///< for compacted diagnosis)
  std::size_t num_failing_patterns = 0;
  std::size_t num_failing_points = 0;    ///< distinct failing observation points

  // Compacted-signature diagnosis only (SignatureDiagnoser); zero when
  // diagnosing a full failure log.
  std::size_t num_windows = 0;
  std::size_t num_failing_windows = 0;
  std::size_t num_masked = 0;            ///< masked (point, window) pairs

  /// Per-query timing and work tallies (never part of ranking or of any
  /// determinism contract; see DiagnosisStats).
  DiagnosisStats stats;

  /// 1-based competition rank of fault `f` among the scored candidates:
  /// candidates with equal scores share a rank (they are indistinguishable
  /// under the applied patterns). Returns 0 if `f` was pruned away.
  std::size_t rank_of(const Fault& f) const;
};

/// The engine state both diagnosers score from: a worker pool, the
/// observation-point space, its cone cache and a good-block cache --
/// owned by a standalone engine, borrowed from a ScanSession otherwise --
/// plus one cone-sweep evaluator per pool worker.
class DiagnosisEngine {
 public:
  /// Standalone: builds the pool (opts.num_threads workers, 0 = hardware
  /// concurrency), point space, cone cache and good-block cache. `who`
  /// names the owning engine in validation errors.
  DiagnosisEngine(const Netlist& nl, const char* who, DiagnosisOptions& opts);
  /// Borrowing: shares the given state; the owner keeps it alive.
  /// opts.num_threads becomes the pool's size in both forms.
  DiagnosisEngine(const Netlist& nl, const char* who, DiagnosisOptions& opts,
                  ThreadPool& pool, const ObservationPoints& points,
                  ObservationConeCache& cones, GoodBlockCache& goods);

  /// Makes the good-block cache serve `patterns`. A standalone engine
  /// rebinds its cache on every call -- the one-shot cost the session API
  /// amortizes away; a borrowed cache must already be bound to them.
  void ensure_goods(std::span<const TestPattern> patterns,
                    const DiagnosisOptions& opts);

  /// Cone-cache tallies at one instant; store_cone_lookups() puts the
  /// lookups made since then on a query's stats.
  struct ConeMark {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  ConeMark cone_mark() const { return {cones->hits(), cones->misses()}; }
  void store_cone_lookups(ConeMark since, DiagnosisStats& st) const {
    st.cone_cache_hits = cones->hits() - since.hits;
    st.cone_cache_misses = cones->misses() - since.misses;
  }

  const Netlist* nl = nullptr;
  ThreadPool* pool = nullptr;
  const ObservationPoints* points = nullptr;
  ObservationConeCache* cones = nullptr;
  GoodBlockCache* goods = nullptr;
  std::vector<FaultConeEvaluator> evals;  ///< one per pool worker

 private:
  void init_evals(DiagnosisOptions& opts);

  // Standalone construction only; null when borrowed.
  std::unique_ptr<ThreadPool> owned_pool_;
  std::unique_ptr<ObservationPoints> owned_points_;
  std::unique_ptr<ObservationConeCache> owned_cones_;
  std::unique_ptr<GoodBlockCache> owned_goods_;
};

class Diagnoser {
 public:
  /// Standalone: owns its engine state (DiagnosisEngine), rebinding the
  /// good-block cache on every call -- one-shot use without a ScanSession.
  explicit Diagnoser(const Netlist& nl, DiagnosisOptions opts = {});
  /// Borrowing: shares a ScanSession's engine state across calls and
  /// engines. `goods` must already be bound (by the owner) to the pattern
  /// storage later passed to diagnose().
  Diagnoser(const Netlist& nl, DiagnosisOptions opts, ThreadPool& pool,
            const ObservationPoints& points, ObservationConeCache& cones,
            GoodBlockCache& goods);
  ~Diagnoser();

  const DiagnosisOptions& options() const { return opts_; }
  const ObservationPoints& points() const { return *eng_.points; }

  /// Scores `faults` (typically collapse_faults(nl)) against the observed
  /// failure log under `patterns` (fully specified; the log's pattern
  /// indices must refer to this set).
  DiagnosisResult diagnose(std::span<const TestPattern> patterns,
                           std::span<const Fault> faults,
                           const FailureLog& log);

  /// Batch entry point behind ScanSession::diagnose_batch: every log is
  /// validated and cone-pruned serially (sharing the lazily built cones),
  /// then the logs fan out round-robin across the worker pool -- each log
  /// is scored wholly within one worker, in the same fixed 64-candidate
  /// rounds and block order as diagnose(), so each result is bit-identical
  /// to a sequential diagnose() call on the same log.
  std::vector<DiagnosisResult> diagnose_batch(
      std::span<const TestPattern> patterns, std::span<const Fault> faults,
      std::span<const FailureLog* const> logs);

 private:
  /// Validated, pruned, ready-to-score state of one log.
  struct Prepared {
    const FailureLog* log = nullptr;
    ResponseMatrix observed;
    std::uint64_t total_fail = 0;
    std::vector<std::uint32_t> candidates;
    std::vector<CandidateScore> scores;
    DiagnosisResult res;  ///< stats prefilled; ranked filled by finalize()
  };

  /// Back-trace flavour: intersection of per-pattern cone unions (sound
  /// for one fault) or the single union over every failing point (sound
  /// for any fault multiplicity; the noise-recovery fallback).
  enum class PruneMode { kIntersect, kUnion };

  /// Scoring schedule: kPool spreads each round's candidates round-robin
  /// across the pool; a worker index scores them all on that worker.
  static constexpr int kPool = -1;

  Prepared prepare(std::span<const TestPattern> patterns,
                   std::span<const Fault> faults, const FailureLog& log,
                   PruneMode mode);
  /// prepare() under the query's "prune" span.
  Prepared prepare_log(std::span<const TestPattern> patterns,
                       std::span<const Fault> faults, const FailureLog& log);
  void finalize(Prepared& p);

  std::vector<std::uint32_t> prune_candidates(std::span<const Fault> faults,
                                              const FailureLog& log,
                                              PruneMode mode);

  /// The per-log pipeline after prepare(): score, finalize, recover noise,
  /// then drain the sweep tallies into the log's stats. `worker` is the
  /// scoring schedule (kPool or a worker index); `stream` is the caller's
  /// good-block streaming scratch.
  template <int W>
  void run_log(std::span<const TestPattern> patterns,
               std::span<const Fault> faults, Prepared& p, int worker,
               std::unique_ptr<BlockSimulator>& stream);

  /// Accumulates one candidate's counters over one good-machine block and
  /// applies the early-exit drop test at the block boundary.
  template <int W>
  void score_candidate_block(FaultConeEvaluator& ev, CandidateScore& sc,
                             const Fault& f, const BlockSimulator& good,
                             std::size_t block, const ResponseMatrix& observed,
                             bool early_exit, std::uint64_t best);

  template <int W>
  void score_candidates(std::span<const Fault> faults, Prepared& p,
                        int worker, std::unique_ptr<BlockSimulator>& stream);

  /// Post-ranking noise recovery: union-pruning fallback + multiplet
  /// cover (header stages 3/4), on the same schedule as the first pass.
  /// In the batch fan-out only already-cached cones are read, so
  /// concurrent workers stay race-free.
  template <int W>
  void recover_noise(std::span<const TestPattern> patterns,
                     std::span<const Fault> faults, Prepared& p, int worker,
                     std::unique_ptr<BlockSimulator>& stream);
  /// Replays the top shortlist candidates, partitions failing patterns by
  /// exact explanation and greedily covers them into res.multiplets.
  template <int W>
  void build_multiplets(int worker, Prepared& p,
                        std::unique_ptr<BlockSimulator>& stream);

  /// Adds one finished query to the registry's diag.* counters (and, when
  /// given, its latency to the diagnose histogram).
  void count_query(const DiagnosisResult& r,
                   const std::uint64_t* latency_us = nullptr) const;

  DiagnosisOptions opts_;
  DiagnosisEngine eng_;
};

}  // namespace scanpower
