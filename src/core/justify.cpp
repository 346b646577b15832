#include "core/justify.hpp"

#include "util/assert.hpp"

namespace scanpower {

Justifier::Justifier(const Netlist& nl, std::vector<bool> controllable,
                     const BacktraceDirective* directive, Telemetry* telemetry)
    : nl_(&nl),
      controllable_(std::move(controllable)),
      directive_(directive ? directive : &default_directive_),
      telemetry_(telemetry),
      imp_(nl) {
  SP_CHECK(controllable_.size() == nl.num_gates(),
           "Justifier: controllable mask size mismatch");
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    if (!controllable_[id]) continue;
    const GateType t = nl.type(id);
    SP_CHECK(t == GateType::Input || t == GateType::Dff,
             "Justifier: controllable point " + nl.gate_name(id) +
                 " is not a source");
  }
  assign_.assign(nl.num_gates(), Logic::X);

  // can_control: a line is influenceable iff it is a controlled input or
  // any fanin is influenceable (monotone over the topological order).
  can_control_.assign(nl.num_gates(), false);
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    if (controllable_[id]) can_control_[id] = true;
  }
  for (GateId id : nl.topo_order()) {
    for (GateId f : nl.fanin_span(id)) {
      if (can_control_[f]) {
        can_control_[id] = true;
        break;
      }
    }
  }
}

void Justifier::preset(GateId source, bool value) {
  SP_CHECK(controllable_[source], "preset on a non-controlled input");
  SP_CHECK(assign_[source] == Logic::X || assign_[source] == from_bool(value),
           "preset contradicts an earlier commitment on " +
               nl_->gate_name(source));
  assign_[source] = from_bool(value);
  imp_.assign(source, from_bool(value));
  imp_.commit();
}

std::pair<GateId, Logic> Justifier::backtrace(GateId node, bool value) {
  const Netlist& nl = *nl_;
  GateId cur = node;
  bool v = value;
  for (;;) {
    const GateType t = nl.types_flat()[cur];
    if (controllable_[cur]) return {cur, from_bool(v)};
    if (t == GateType::Input || t == GateType::Dff || !can_control_[cur] ||
        t == GateType::Const0 || t == GateType::Const1) {
      return {kInvalidGate, Logic::X};  // dead end
    }
    const auto fanins = nl.fanin_span(cur);
    const bool want = is_inverting(t) ? !v : v;
    candidates_.clear();
    for (GateId f : fanins) {
      if (imp_.good(f) == Logic::X && can_control_[f]) candidates_.push_back(f);
    }
    if (candidates_.empty()) return {kInvalidGate, Logic::X};
    const auto cv = controlling_value(t);
    GateId chosen;
    bool next_value;
    if (cv) {
      const bool needs_controlling =
          (want == (t == GateType::Or || t == GateType::Nor));
      const bool target = needs_controlling ? *cv : !*cv;
      chosen = directive_->choose(nl, cur, candidates_, target);
      next_value = target;
    } else if (t == GateType::Buf || t == GateType::Not) {
      chosen = fanins[0];
      next_value = want;
    } else {
      chosen = directive_->choose(nl, cur, candidates_, want);
      next_value = want;
    }
    cur = chosen;
    v = next_value;
  }
}

bool Justifier::justify(GateId node, bool value, int backtrack_limit) {
  int backtracks = 0;
  const bool ok = search(node, value, backtrack_limit, backtracks) ==
                  JustifyStatus::Justified;
  if (ok) imp_.commit();
  SP_TELEM_ADD(telemetry_, 0, CounterId::kJustifyCalls, 1);
  SP_TELEM_ADD(telemetry_, 0, CounterId::kJustifyBacktracks, backtracks);
  return ok;
}

JustifyStatus Justifier::probe(GateId node, bool value, int backtrack_limit) {
  int backtracks = 0;
  decisions_.clear();
  const JustifyStatus status = search(node, value, backtrack_limit, backtracks);
  // A failed search has already rolled back; a successful one leaves its
  // decisions open above the empty trail of the committed state.
  for (const Decision& d : decisions_) assign_[d.point] = Logic::X;
  imp_.undo(0);
  return status;
}

JustifyStatus Justifier::search(GateId node, bool value, int backtrack_limit,
                                int& backtracks) {
  const Logic target = from_bool(value);
  if (imp_.good(node) == target) return JustifyStatus::Justified;
  // A known value contradicts the commitments; a line no controlled input
  // reaches keeps its value.
  if (imp_.good(node) != Logic::X || !can_control_[node]) {
    return JustifyStatus::Unjustifiable;
  }

  // The trail is empty between calls, so undoing the first decision of
  // this call restores exactly the committed state.
  decisions_.clear();
  bool out_of_budget = false;

  // Flips the most recent unflipped decision of *this* call; false when
  // the local decision tree is exhausted (or the budget ran out), with
  // every assignment of the call rolled back.
  auto backtrack = [&]() -> bool {
    while (!decisions_.empty()) {
      Decision& d = decisions_.back();
      imp_.undo(d.mark);
      if (!d.flipped) {
        if (backtracks < backtrack_limit) {
          d.flipped = true;
          d.value = logic_not(d.value);
          assign_[d.point] = d.value;
          imp_.assign(d.point, d.value);
          ++backtracks;
          return true;
        }
        out_of_budget = true;
      }
      assign_[d.point] = Logic::X;
      decisions_.pop_back();
    }
    return false;
  };
  const auto failed = [&] {
    return out_of_budget ? JustifyStatus::Aborted
                         : JustifyStatus::Unjustifiable;
  };

  for (;;) {
    if (imp_.good(node) == target) return JustifyStatus::Justified;
    if (imp_.good(node) != Logic::X) {
      if (!backtrack()) return failed();
      continue;
    }
    // X: extend the assignment toward the objective.
    const auto [point, pv] = backtrace(node, value);
    if (point == kInvalidGate) {
      // No controllable X line supports the objective from here.
      if (!backtrack()) return failed();
      continue;
    }
    SP_ASSERT(assign_[point] == Logic::X,
              "justify backtrace chose an assigned point");
    assign_[point] = pv;
    decisions_.push_back({point, pv, false, imp_.mark()});
    imp_.assign(point, pv);
  }
}

}  // namespace scanpower
