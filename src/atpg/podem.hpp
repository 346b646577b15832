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
// X-path check: a step whose D-frontier cannot reach an observable line
// through gates that may still differ between the two machines is a dead
// end. Values only get more specific as sources are assigned, so a gate
// whose machines agree on a known value keeps blocking the effect and the
// pruned subtree holds no test. The search visits the surviving nodes in
// the same order, with no more backtracks.

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
  /// X-path check: true when some frontier_ gate reaches an observable
  /// gate through cone gates whose two machines do not hold the same
  /// known value.
  bool x_path_exists();
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
  std::vector<Decision> decisions_;
  int backtracks_ = 0;
  int xpath_prunes_ = 0;
};

}  // namespace scanpower
