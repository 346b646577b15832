#pragma once
// Incremental 3-valued implication: the engine behind PODEM (good and
// faulty machines) and Justify() (good machine only).
//
// Decisions assign sources -- primary inputs and DFF outputs, the
// full-scan combinational view. An assignment propagates as events: a
// level-bucketed queue visits each affected gate once, in level order,
// and a gate's fanouts are queued only when one of its two values
// changes. Every value change is recorded on an undo trail, so popping a
// decision restores the values it replaced without evaluating a gate.
//
// Contract: whenever assign()/undo()/reset() return, every value equals
// a full level-order re-simulation of the current source assignment (the
// two machines agree outside the fanout cone of the injected fault). The
// search engines' decision sequences therefore do not depend on how the
// values were computed; tests/test_atpg.cpp pins that with golden hashes.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "atpg/fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/logic.hpp"

namespace scanpower {

class ImplicationEngine {
 public:
  /// Binds to a finalized netlist, which must outlive the engine unchanged;
  /// the state starts with every source X.
  explicit ImplicationEngine(const Netlist& nl);

  /// Restores the every-source-X state, injects `fault` into the faulty
  /// machine and clears the trail. Until the first reset() the faulty
  /// machine mirrors the good one. A DFF D-pin fault has no effect inside
  /// the combinational view, so it is not injected.
  void reset(const Fault& fault);

  /// Sets source `src` (Input/Dff) to `v` in both machines -- a stem-faulted
  /// source keeps its stuck value in the faulty machine -- and propagates.
  void assign(GateId src, Logic v);

  /// Trail position to pass to undo().
  std::size_t mark() const { return trail_.size(); }
  /// Restores every value changed since `mark` was taken.
  void undo(std::size_t mark);
  /// Forgets the trail: the current values become the floor of undo().
  void commit() { trail_.clear(); }

  Logic good(GateId id) const { return good_[id]; }
  Logic faulty(GateId id) const { return faulty_[id]; }
  const std::vector<Logic>& good_values() const { return good_; }
  /// Faulty-machine value seen on input `pin` of `gate` (a pin fault
  /// forces its own branch).
  Logic faulty_input(GateId gate, std::size_t pin) const {
    return gate == pin_site_ && pin == pin_ ? stuck_
                                            : faulty_[nl_->fanin_span(gate)[pin]];
  }

  /// The injected fault's site plus its combinational fanout cone, deepest
  /// level first (ties by id). Only these gates can differ between the two
  /// machines. Empty when no fault is injected.
  const std::vector<GateId>& fault_cone() const { return cone_; }
  bool in_fault_cone(GateId id) const { return in_cone_[id] != 0; }

 private:
  struct TrailEntry {
    GateId id;
    Logic good;
    Logic faulty;
  };

  void enqueue(GateId g);
  void enqueue_fanouts(GateId g);
  /// Drains the queue in level order.
  void propagate();
  /// Re-evaluates both machines at `g`; set()s it if either value changed.
  void evaluate(GateId g);
  /// Trails g's old values, writes the new ones and queues g's fanouts.
  void set(GateId g, Logic good, Logic faulty);

  const Netlist* nl_;
  std::span<const GateType> types_;
  std::span<const std::uint32_t> levels_;

  std::vector<Logic> base_;  ///< every source X (constants propagated)
  std::vector<Logic> good_;
  std::vector<Logic> faulty_;
  std::vector<TrailEntry> trail_;

  // Injected fault: a stem site forces its output, a pin site one input.
  GateId stem_site_ = kInvalidGate;
  GateId pin_site_ = kInvalidGate;
  std::size_t pin_ = 0;
  Logic stuck_ = Logic::X;
  std::vector<std::uint8_t> in_cone_;
  std::vector<GateId> cone_;

  // Level-bucketed event queue: bucket L holds queued gates of level L in
  // queue_[bucket_begin_[L], bucket_end_[L]); a gate is queued at most
  // once, so the buckets never overflow their level's gate count.
  std::vector<GateId> queue_;
  std::vector<std::uint32_t> bucket_begin_;
  std::vector<std::uint32_t> bucket_end_;
  static constexpr std::uint32_t kNoLevel =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint8_t> queued_;
  std::uint32_t lo_level_ = kNoLevel;  ///< lowest non-empty bucket
  std::uint32_t hi_level_ = 0;         ///< highest non-empty bucket
};

}  // namespace scanpower
