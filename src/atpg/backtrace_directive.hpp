#pragma once
// Pluggable decision heuristics for PODEM-style backtrace.
//
// PODEM is complete regardless of how ties are broken (it enumerates
// controllable-point assignments with backtracking), so the directive only
// shapes *which* satisfying assignment is found first. ATPG uses a
// level-based default; the core algorithm of the paper plugs in a
// leakage-observability directive so the blocking vector found is also a
// low-leakage vector (Section 4).

#include <vector>

#include "netlist/netlist.hpp"

namespace scanpower {

class BacktraceDirective {
 public:
  virtual ~BacktraceDirective() = default;

  /// Chooses among `candidates` (fanin gate ids with unknown value) the
  /// line to pursue when the required value on the chosen line is
  /// `target_value`. Must return one of the candidates.
  virtual GateId choose(const Netlist& nl, GateId gate,
                        const std::vector<GateId>& candidates,
                        bool target_value) const = 0;
};

/// Default: prefer the shallowest candidate (cheapest to justify); ties by
/// lowest id for determinism. `gate` and `target_value` unused.
class DepthDirective final : public BacktraceDirective {
 public:
  GateId choose(const Netlist& nl, GateId /*gate*/,
                const std::vector<GateId>& candidates,
                bool /*target_value*/) const override {
    const auto level = nl.levels_flat();
    GateId best = candidates.front();
    for (GateId c : candidates) {
      if (level[c] < level[best] || (level[c] == level[best] && c < best)) {
        best = c;
      }
    }
    return best;
  }
};

/// Leakage-observability directive (the paper's rule): when the value to
/// be set is 1 choose the candidate with minimum observability, when 0 the
/// maximum -- i.e. steer lines toward their low-leakage polarity.
class ObservabilityDirective final : public BacktraceDirective {
 public:
  explicit ObservabilityDirective(const std::vector<double>& obs)
      : obs_(&obs) {}

  GateId choose(const Netlist& /*nl*/, GateId /*gate*/,
                const std::vector<GateId>& candidates,
                bool target_value) const override {
    GateId best = candidates.front();
    for (GateId c : candidates) {
      const double oc = (*obs_)[c];
      const double ob = (*obs_)[best];
      const bool better = target_value ? (oc < ob) : (oc > ob);
      if (better || (oc == ob && c < best)) best = c;
    }
    return best;
  }

 private:
  const std::vector<double>* obs_;
};

}  // namespace scanpower
