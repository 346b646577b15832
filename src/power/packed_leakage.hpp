#pragma once
// Packed (bit-parallel) leakage evaluation.
//
// The scalar power stack evaluates one vector at a time: a full 3-valued
// simulation followed by a per-gate circuit_leakage_na() walk. This
// engine batches 64*W fully specified vectors per sweep on top of the
// BlockSimulator and aggregates per-lane circuit leakage from the packed
// value words through the precomputed GateLeakageTables: for each gate
// the per-lane input state index is assembled branch-free from the fanin
// value words and resolved with one table load, instead of 64*W scalar
// walks through the cell-model switch.
//
// Two evaluation modes:
//  - BlockSimulator (2-valued): fully specified lanes, used by the
//    Monte-Carlo observability engine and the min-leakage vector search.
//  - TernaryBlockSimulator (3-valued, Kleene): lanes may carry X (e.g.
//    the non-multiplexed scan cells during don't-care fill); X-affected
//    gates read the (state, xmask) expected tables, so each lane's total
//    equals the scalar X-aware leakage bit-for-bit.

#include <span>
#include <vector>

#include "atpg/packed_sim.hpp"
#include "netlist/netlist.hpp"
#include "power/leakage_model.hpp"
#include "sim/logic.hpp"

namespace scanpower {

/// Packed 3-valued (Kleene) simulator: each gate holds two W-word planes,
/// p1 ("possibly 1") and p0 ("possibly 0"); a lane with both bits set is
/// X, exactly one bit set is a known value. Gate evaluation reproduces
/// eval_gate() lane-wise (including the MUX rule: X select with agreeing
/// data inputs resolves), so ternary packed values match the scalar
/// Simulator on every lane.
class TernaryBlockSimulator {
 public:
  explicit TernaryBlockSimulator(const Netlist& nl, int words = 4,
                                 SimBackend backend = SimBackend::Auto);

  int words() const { return words_; }
  /// The resolved kernel backend (never Auto).
  SimBackend backend() const { return backend_; }
  std::size_t lanes() const { return static_cast<std::size_t>(words_) * 64; }

  PatternWord* p1(GateId id) {
    return p1_.data() + static_cast<std::size_t>(id) * words_;
  }
  const PatternWord* p1(GateId id) const {
    return p1_.data() + static_cast<std::size_t>(id) * words_;
  }
  PatternWord* p0(GateId id) {
    return p0_.data() + static_cast<std::size_t>(id) * words_;
  }
  const PatternWord* p0(GateId id) const {
    return p0_.data() + static_cast<std::size_t>(id) * words_;
  }

  /// Broadcasts one logic value (0/1/X) to every lane of a source.
  void set_source_all(GateId id, Logic v);
  /// Sets 64 fully specified lanes of a source: bit i of `ones` is the
  /// value of lane 64*wi + i.
  void set_source_word(GateId id, int wi, PatternWord ones) {
    p1(id)[wi] = ones;
    p0(id)[wi] = ~ones;
  }

  Logic lane_value(GateId id, std::size_t lane) const;

  /// Full levelized Kleene evaluation of the combinational core, through
  /// the resolved backend's kernel table.
  void eval();

 private:
  const Netlist* nl_;
  int words_;
  SimBackend backend_;      ///< resolved, never Auto
  const SimKernels* kern_;  ///< backend kernel table
  std::vector<PatternWord> p1_;  ///< num_gates * words_, gate-major
  std::vector<PatternWord> p0_;
};

/// Per-lane circuit leakage of a packed sweep. Stateless apart from
/// netlist/table references, so one evaluator can be shared by any number
/// of worker threads. Accumulation walks gates in ascending GateId -- the
/// same order as LeakageModel::circuit_leakage_na -- so per-lane sums are
/// bit-identical to the scalar walk.
class PackedLeakageEvaluator {
 public:
  /// `backend` steers the table-gather kernel of both evals (the
  /// evaluator is width-agnostic, so resolution happens per eval() call
  /// against the simulator's width).
  PackedLeakageEvaluator(const Netlist& nl, const GateLeakageTables& tables,
                         SimBackend backend = SimBackend::Auto);

  const GateLeakageTables& tables() const { return *tables_; }

  /// leak[lane] = total combinational leakage (nA) of lane `lane`;
  /// leak.size() must be >= sim.lanes(). Fully specified lanes.
  void eval(const BlockSimulator& sim, std::span<double> leak) const;

  /// 3-valued variant: lanes carrying X on a gate's inputs contribute
  /// that gate's expected leakage (uniform over the X assignments),
  /// matching LeakageModel::cell_expected_leakage_na bit-for-bit.
  void eval(const TernaryBlockSimulator& sim, std::span<double> leak) const;

 private:
  const Netlist* nl_;
  const GateLeakageTables* tables_;
  SimBackend backend_;  ///< as requested (may be Auto; resolved per eval)
};

}  // namespace scanpower
