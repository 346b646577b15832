#pragma once
// PODEM test generation for one stuck-at fault (full-scan combinational
// view), using dual 3-valued good/faulty machines.
//
// Decisions are made only at controllable points (PIs and DFF outputs),
// which keeps the search complete: if the decision tree is exhausted the
// fault is proven untestable (redundant). The backtrace tie-break is
// pluggable (BacktraceDirective); the same directive seam and the same
// implication core (ImplicationEngine) power the paper's Justify().
//
// Values are implied incrementally: a decision propagates events from the
// source it assigns, and a backtrack rolls the undo trail back to the
// decision instead of re-simulating. The D-frontier is searched only in
// the fanout cone of the fault site, once per search step.
//
// X-path check: a step is a dead end when no line that may carry the
// fault effect -- the D-frontier once the fault is activated, the fault
// site before that -- reaches an observable line through gates that may
// still differ between the two machines. Values only get more specific as
// sources are assigned, so a gate whose machines agree on a known value
// keeps blocking the effect and the pruned subtree holds no test. The
// search visits the surviving nodes in the same order, with no more
// backtracks.
//
// Learned constant lines (PodemOptions::constant_lines) only prune: a
// fault whose activation line is constant at the stuck value is
// untestable, and a cone gate with a fanin outside the cone that is
// constant at the gate's controlling value blocks every X-path. They are
// never written into the implied values, so objectives and backtraces --
// and with them the patterns -- do not change.

#include <optional>
#include <span>

#include "atpg/backtrace_directive.hpp"
#include "atpg/fault.hpp"
#include "atpg/implication.hpp"
#include "atpg/pattern.hpp"
#include "netlist/netlist.hpp"
#include "sim/logic.hpp"
#include "util/telemetry.hpp"

namespace scanpower {

struct PodemOptions {
  int backtrack_limit = 4000;
  const BacktraceDirective* directive = nullptr;  ///< default: DepthDirective
  /// Optional metrics scope (not owned; nullptr = no telemetry): podem.*
  /// counters (including the X-path dead ends, podem.xpath_prunes), added
  /// once per generate() call.
  Telemetry* telemetry = nullptr;
  /// Learned constant lines (not owned; empty = none): one entry per gate,
  /// the value the line holds under every source assignment or X
  /// (learn_constant_lines). Must outlive the Podem.
  std::span<const Logic> constant_lines;
};

enum class PodemStatus { Detected, Untestable, Aborted };

struct PodemResult {
  PodemStatus status = PodemStatus::Aborted;
  TestPattern pattern;  ///< with X at unassigned positions (Detected only)
  int backtracks = 0;
};

class Podem {
 public:
  explicit Podem(const Netlist& nl, PodemOptions opts = {});

  PodemResult generate(const Fault& fault);

 private:
  struct Decision {
    GateId point;
    Logic value;
    bool flipped;
    std::size_t mark;  ///< implication trail before the decision
  };

  bool detected() const;
  bool activation_impossible() const;
  bool activated() const;
  /// Fills frontier_ with the cone gates that can still propagate the
  /// fault effect, deepest first (ties by id).
  void compute_d_frontier();
  /// True when the fault effect can never pass `g`: its two machines hold
  /// the same known value, or a learned constant blocks it.
  bool blocked(GateId g) const {
    const Logic gv = imp_.good(g);
    return (is_known(gv) && gv == imp_.faulty(g)) || const_blocked_[g];
  }
  /// Marks the cone gates a learned constant blocks for the current fault.
  void mark_const_blocked();
  /// X-path check: true when some unblocked gate of `from` reaches an
  /// observable gate through unblocked cone gates.
  bool x_path_exists(std::span<const GateId> from);
  /// Objective (line, value) to pursue next; nullopt = dead end.
  /// `frontier` is this step's D-frontier (read once the fault is
  /// activated).
  std::optional<std::pair<GateId, bool>> objective(
      std::span<const GateId> frontier) const;
  /// Maps an objective to an unassigned controllable point.
  std::pair<GateId, Logic> backtrace(GateId node, bool value);
  void decide(GateId point, Logic value);
  bool backtrack();  ///< false when the tree is exhausted
  PodemResult finish(PodemStatus status);

  GateId activation_line() const;

  const Netlist* nl_;
  PodemOptions opts_;
  DepthDirective default_directive_;
  Fault fault_{};
  bool dff_pin_fault_ = false;

  ImplicationEngine imp_;
  std::vector<std::uint8_t> observable_;  ///< PO or DFF D driver
  std::vector<GateId> cone_observed_;     ///< observable gates in the cone
  std::vector<GateId> frontier_;
  std::vector<GateId> candidates_;        ///< backtrace scratch
  // X-path scratch: a gate is visited this step iff its mark equals the
  // epoch, so no step clears the marks.
  std::vector<std::uint32_t> xpath_mark_;
  std::uint32_t xpath_epoch_ = 0;
  std::vector<GateId> xpath_stack_;
  // Cone gates blocked by a learned constant for the current fault, and
  // the list that clears them at the next fault.
  std::vector<std::uint8_t> const_blocked_;
  std::vector<GateId> const_blocked_list_;
  std::vector<Decision> decisions_;
  int backtracks_ = 0;
  int xpath_prunes_ = 0;
};

}  // namespace scanpower
