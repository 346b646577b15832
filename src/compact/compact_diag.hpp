#pragma once
// Stuck-at diagnosis over MISR-compacted responses.
//
// The tester reports one signature per window of patterns instead of
// per-point failures (SignatureLog), so diagnosis cannot compare
// (pattern, observation point) pairs -- it compares signatures. For a
// single stuck-at candidate the faulty signature is predictable without
// compacting any response: by MISR linearity
//     sig(faulty) = sig(good) ^ sig(diff),
// and sig(diff) is the XOR of what each set bit of the diff adds alone
// (Misr::bit_signatures: one entry per observation point and number of
// patterns left in the window). So every candidate's packed cone sweep
// (FaultConeEvaluator, the same engine full-response diagnosis uses)
// XORs, for each set bit its sink receives that the X-mask keeps, that
// bit's table entry into the bit's window signature. The cost scales
// with the diff's set bits, not with points x patterns.
//
// A candidate's per-window signature diff depends only on (pattern set,
// MISR configuration, fault), never on the log, so it is a lazily built
// signature fault dictionary (SignatureDiffTable, held by the
// SignatureCapture of that configuration): a candidate whose row is
// filled skips its sweep, any other sweeps and stores its row. Only the
// candidates a log prunes to are swept, so the first log of a
// configuration costs what an uncached one does and later logs mostly
// read rows. A stored row is exactly what the sweep computes, so no result
// depends on the table's history; each candidate has one writer, so
// workers never share a row. (Past SignatureDiffTable::kMaxWords no rows
// are kept and every candidate sweeps.)
//
// A candidate's window signature diffs are then matched against the log:
//
//   TFSF  window fails on the tester AND the candidate predicts exactly
//         the observed signature (explained window)
//   TFSP  window fails on the tester, candidate predicts pass -- or
//         predicts a *different* corruption (counted in both TFSP and
//         TPSF: it neither explains the observation nor stays silent)
//   TPSF  window passes on the tester, candidate predicts a failure
//
// Ranking reuses CandidateScore/DiagnosisResult verbatim (counters are
// window counts): exact explanations first, then ascending TFSP + TPSF,
// then descending TFSF. Candidates are scored round-robin across the
// worker pool from per-worker scratch; counters depend only on the
// candidate's full diff (never on block partitioning or scheduling), so
// rankings are bit-identical for every (block width, thread count)
// configuration.
//
// Cone pruning is necessarily weaker than the full-response engine's: a
// failing window names no failing point, so a candidate must merely lie
// in the union of the *unmasked* points' cones for every failing window
// (compaction trades diagnosability for bandwidth). Distinct unmasked
// sets are deduplicated before intersecting; without X-masking all
// windows share one union and the back-trace runs once.

#include <span>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/pattern.hpp"
#include "compact/misr.hpp"
#include "compact/signature_log.hpp"
#include "compact/xmask.hpp"
#include "diag/diagnose.hpp"
#include "diag/response.hpp"
#include "netlist/netlist.hpp"
#include "util/thread_pool.hpp"

namespace scanpower {

class SignatureDiagnoser {
 public:
  /// Standalone: owns its engine state (DiagnosisEngine) and builds a
  /// fresh compaction state (X-mask plan, expected signatures, diff
  /// table) on every diagnose() call, so calls share nothing.
  /// Takes the engine knobs from DiagnosisOptions (block_words,
  /// num_threads, backend, cone_pruning); the MISR configuration comes
  /// from the diagnosed log. score_early_exit does not apply -- window
  /// counters are too coarse for a sound mid-sweep bound -- and is ignored.
  explicit SignatureDiagnoser(const Netlist& nl, DiagnosisOptions opts = {});
  /// Borrowing: shares a ScanSession's engine state; the session also
  /// keeps one SignatureCapture per MISR configuration and hands it to
  /// diagnose_with().
  SignatureDiagnoser(const Netlist& nl, DiagnosisOptions opts,
                     ThreadPool& pool, const ObservationPoints& points,
                     ObservationConeCache& cones, GoodBlockCache& goods);
  ~SignatureDiagnoser();

  const DiagnosisOptions& options() const { return opts_; }
  const ObservationPoints& points() const { return *eng_.points; }

  /// Scores `faults` against a compacted signature log under `patterns`
  /// (the set the log was recorded for; X bits allowed -- they are
  /// zero-filled for simulation and handled by the rebuilt X-mask plan).
  /// Checks that the log's expected signatures match the good machine,
  /// which catches pattern-set or MISR-configuration mismatches up front.
  DiagnosisResult diagnose(std::span<const TestPattern> patterns,
                           std::span<const Fault> faults,
                           const SignatureLog& log);

  /// Precomputed-state variant used by ScanSession: `patterns` must be
  /// fully specified (the session's zero-filled view), and `state` bound
  /// to the original patterns under the log's MISR configuration. Its
  /// X-mask plan and expected signatures are used as they are; its diff
  /// table is read and filled, indexed by the position in `faults` (a
  /// different fault list clears it).
  DiagnosisResult diagnose_with(std::span<const TestPattern> patterns,
                                std::span<const Fault> faults,
                                const SignatureLog& log,
                                SignatureCapture& state);

 private:
  struct Worker;

  std::vector<std::uint32_t> prune_candidates(std::span<const Fault> faults,
                                              const SignatureLog& log,
                                              const XMaskPlan& plan);

  template <int W>
  void score_candidates(std::span<const TestPattern> patterns,
                        std::span<const Fault> faults,
                        std::span<const std::uint32_t> candidates,
                        const SignatureLog& log, const XMaskPlan& plan,
                        SignatureDiffTable& table,
                        std::vector<CandidateScore>& scores);

  DiagnosisOptions opts_;
  DiagnosisEngine eng_;
  std::vector<Worker> workers_;  ///< scoring scratch, one per pool worker
};

}  // namespace scanpower
