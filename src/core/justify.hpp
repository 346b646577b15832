#pragma once
// Justify(): PODEM-like line justification over the *controlled inputs*
// (primary inputs + multiplexed pseudo-inputs), the engine behind
// FindControlledInputPattern().
//
// Differences from ATPG PODEM:
//  - no fault machine: one 3-valued circuit;
//  - decision points are the controlled inputs only; non-controlled
//    pseudo-inputs are permanently X (their values change every shift
//    cycle, so nothing may depend on them);
//  - justifications are *cumulative*: each successful justify() commits
//    its assignments and later calls must respect them. A failed call
//    rolls back everything it assigned.
//
// Values come from the incremental implication core PODEM uses
// (ImplicationEngine, good machine only): a decision propagates events
// from its source, and backtracking rolls the undo trail back.
//
// The backtrace tie-break is the pluggable BacktraceDirective; the paper
// drives it with leakage observability so that, of the many blocking
// vectors, a low-leakage one is found.

#include <vector>

#include "atpg/backtrace_directive.hpp"
#include "atpg/implication.hpp"
#include "netlist/netlist.hpp"
#include "sim/logic.hpp"
#include "util/telemetry.hpp"

namespace scanpower {

/// How a justification search ended. Unjustifiable means the search tree
/// was exhausted. When every source is controllable that proves that no
/// assignment of the free sources gives the line the value under the
/// committed assignment; with uncontrolled sources a backtrace can also
/// end a branch at a line only they drive. Aborted means the backtrack
/// budget ran out first, which proves nothing.
enum class JustifyStatus { Justified, Unjustifiable, Aborted };

class Justifier {
 public:
  /// `controllable[g]` marks gates (must be Input/Dff) whose value the
  /// scan-mode pattern may fix. `telemetry` (optional, not owned) receives
  /// the justify.* counters, added once per justify() call.
  Justifier(const Netlist& nl, std::vector<bool> controllable,
            const BacktraceDirective* directive = nullptr,
            Telemetry* telemetry = nullptr);

  /// Attempts to set line `node` to `value`. Commits on success; restores
  /// the previous state on failure. Returns success.
  bool justify(GateId node, bool value, int backtrack_limit = 500);

  /// The same search as justify(), but it never commits: the state is
  /// unchanged on return, and the result tells an exhausted search from a
  /// budget abort. No justify.* counters are added.
  JustifyStatus probe(GateId node, bool value, int backtrack_limit);

  /// Pre-assigns a controlled input (e.g. an externally chosen constant).
  /// Throws if it contradicts an earlier commitment.
  void preset(GateId source, bool value);

  /// Current 3-valued circuit values under the committed assignment
  /// (non-controlled sources X).
  const std::vector<Logic>& values() const { return imp_.good_values(); }
  Logic value(GateId id) const { return imp_.good(id); }

  /// Committed controlled-input assignment (X = still free).
  const std::vector<Logic>& assignment() const { return assign_; }

  const std::vector<bool>& controllable() const { return controllable_; }

  /// True if the line's value can be influenced by controlled inputs
  /// (i.e. its fanin cone reaches at least one controlled input).
  bool can_control(GateId id) const { return can_control_[id]; }

 private:
  struct Decision {
    GateId point;
    Logic value;
    bool flipped;
    std::size_t mark;  ///< implication trail before the decision
  };

  std::pair<GateId, Logic> backtrace(GateId node, bool value);
  /// The decision search behind justify() and probe(); adds its flips to
  /// `backtracks`. On success the call's decisions stay open in
  /// decisions_ and on the trail, for the caller to commit or undo.
  JustifyStatus search(GateId node, bool value, int backtrack_limit,
                       int& backtracks);

  const Netlist* nl_;
  std::vector<bool> controllable_;
  std::vector<bool> can_control_;
  DepthDirective default_directive_;
  const BacktraceDirective* directive_;
  Telemetry* telemetry_;
  std::vector<Logic> assign_;
  ImplicationEngine imp_;
  std::vector<Decision> decisions_;   ///< open decisions of one justify()
  std::vector<GateId> candidates_;    ///< backtrace scratch
};

}  // namespace scanpower
