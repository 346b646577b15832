#pragma once
// Reference PODEM without the X-path check (test-only).
//
// The same dual-machine search as the library Podem, decision for
// decision, except that a step is a dead end only when its D-frontier is
// empty (or no objective is left): a frontier with no X-path to an
// observable gate is still searched exhaustively. For every fault this
// oracle does not abort, Podem must return the same status and pattern
// with no more backtracks (PodemOracleRelation in tests/test_atpg.cpp).
// Options and results are the library's; telemetry and learned constant
// lines are ignored.

#include <optional>
#include <span>

#include "atpg/backtrace_directive.hpp"
#include "atpg/fault.hpp"
#include "atpg/implication.hpp"
#include "atpg/podem.hpp"
#include "netlist/netlist.hpp"
#include "sim/logic.hpp"

namespace scanpower::oracle {

class PodemOracle {
 public:
  explicit PodemOracle(const Netlist& nl, PodemOptions opts = {});

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
  void compute_d_frontier();
  std::optional<std::pair<GateId, bool>> objective(
      std::span<const GateId> frontier) const;
  std::pair<GateId, Logic> backtrace(GateId node, bool value);
  void decide(GateId point, Logic value);
  bool backtrack();
  PodemResult finish(PodemStatus status);

  GateId activation_line() const;

  const Netlist* nl_;
  PodemOptions opts_;
  DepthDirective default_directive_;
  Fault fault_{};
  bool dff_pin_fault_ = false;

  ImplicationEngine imp_;
  std::vector<std::uint8_t> observable_;
  std::vector<GateId> cone_observed_;
  std::vector<GateId> frontier_;
  std::vector<GateId> candidates_;
  std::vector<Decision> decisions_;
  int backtracks_ = 0;
};

}  // namespace scanpower::oracle
