#include "atpg/podem.hpp"

#include <algorithm>

#include "atpg/fault_sim.hpp"
#include "util/assert.hpp"

namespace scanpower {

Podem::Podem(const Netlist& nl, PodemOptions opts)
    : nl_(&nl),
      opts_(opts),
      imp_(nl),
      observable_(observable_net_mask(nl)),
      xpath_mark_(nl.num_gates(), 0),
      const_blocked_(nl.num_gates(), 0) {
  if (!opts_.directive) opts_.directive = &default_directive_;
  SP_CHECK(opts_.constant_lines.empty() ||
               opts_.constant_lines.size() == nl.num_gates(),
           "Podem: constant_lines must have one entry per gate");
}

GateId Podem::activation_line() const {
  // Stem fault: the gate's own output line. Pin fault: the driver of the
  // faulted branch must carry the opposite value.
  if (fault_.pin < 0) return fault_.gate;
  return nl_->fanin_span(fault_.gate)[static_cast<std::size_t>(fault_.pin)];
}

bool Podem::detected() const {
  if (dff_pin_fault_) {
    const Logic d = imp_.good(nl_->fanin_span(fault_.gate)[0]);
    return is_known(d) && as_bool(d) != fault_.stuck_at;
  }
  // The two machines can only differ inside the fault cone.
  for (GateId o : cone_observed_) {
    const Logic gv = imp_.good(o);
    const Logic fv = imp_.faulty(o);
    if (is_known(gv) && is_known(fv) && gv != fv) return true;
  }
  return false;
}

bool Podem::activation_impossible() const {
  const Logic v = imp_.good(activation_line());
  return is_known(v) && as_bool(v) == fault_.stuck_at;
}

bool Podem::activated() const {
  const Logic v = imp_.good(activation_line());
  return is_known(v) && as_bool(v) != fault_.stuck_at;
}

void Podem::compute_d_frontier() {
  frontier_.clear();
  for (GateId id : imp_.fault_cone()) {
    // A frontier gate's output cannot yet show the effect, but one of its
    // inputs does.
    if (imp_.good(id) != Logic::X && imp_.faulty(id) != Logic::X) continue;
    const auto fanins = nl_->fanin_span(id);
    for (std::size_t p = 0; p < fanins.size(); ++p) {
      const Logic gv = imp_.good(fanins[p]);
      const Logic fv = imp_.faulty_input(id, p);
      if (is_known(gv) && is_known(fv) && gv != fv) {
        frontier_.push_back(id);
        break;
      }
    }
  }
}

void Podem::mark_const_blocked() {
  for (GateId g : const_blocked_list_) const_blocked_[g] = 0;
  const_blocked_list_.clear();
  if (opts_.constant_lines.empty()) return;
  const auto types = nl_->types_flat();
  for (GateId g : imp_.fault_cone()) {
    // A stem site forces its own output, whatever its fanins hold.
    if (g == fault_.gate && fault_.pin < 0) continue;
    const auto cv = controlling_value(types[g]);
    if (!cv) continue;
    const auto fanins = nl_->fanin_span(g);
    for (std::size_t p = 0; p < fanins.size(); ++p) {
      // The faulted pin reads its stuck value, not its driver's.
      if (g == fault_.gate && static_cast<int>(p) == fault_.pin) continue;
      // Outside the cone the two machines agree, so a constant at the
      // controlling value fixes the gate's output in both.
      const GateId d = fanins[p];
      if (!imp_.in_fault_cone(d) && opts_.constant_lines[d] == from_bool(*cv)) {
        const_blocked_[g] = 1;
        const_blocked_list_.push_back(g);
        break;
      }
    }
  }
}

bool Podem::x_path_exists(std::span<const GateId> from) {
  if (++xpath_epoch_ == 0) {  // wrapped: stale marks could alias
    std::fill(xpath_mark_.begin(), xpath_mark_.end(), 0u);
    xpath_epoch_ = 1;
  }
  const auto types = nl_->types_flat();
  xpath_stack_.clear();
  for (GateId g : from) {
    if (blocked(g)) continue;
    xpath_mark_[g] = xpath_epoch_;
    xpath_stack_.push_back(g);
  }
  // Fanouts of cone gates are cone gates, except DFFs, which end the
  // combinational view (their D drivers are observable).
  while (!xpath_stack_.empty()) {
    const GateId g = xpath_stack_.back();
    xpath_stack_.pop_back();
    if (observable_[g]) return true;
    for (GateId f : nl_->fanout_span(g)) {
      if (types[f] == GateType::Dff || xpath_mark_[f] == xpath_epoch_) continue;
      if (blocked(f)) continue;  // blocked for good
      xpath_mark_[f] = xpath_epoch_;
      xpath_stack_.push_back(f);
    }
  }
  return false;
}

std::optional<std::pair<GateId, bool>> Podem::objective(
    std::span<const GateId> frontier) const {
  // Phase 1: excite the fault.
  if (!activated()) {
    const GateId line = activation_line();
    if (imp_.good(line) != Logic::X) return std::nullopt;  // impossible
    return std::make_pair(line, !fault_.stuck_at);
  }
  if (dff_pin_fault_) return std::nullopt;  // activation == detection here
  // Phase 2: drive the effect through a D-frontier gate. Scan every
  // frontier gate (deepest first) for an extendable side input: its good
  // value must be open (X) and its faulty value must not already be the
  // controlling value (which would block the effect in the faulty
  // machine no matter what we justify).
  for (GateId g : frontier) {
    const auto fanins = nl_->fanin_span(g);
    const auto cv = controlling_value(nl_->types_flat()[g]);
    for (std::size_t p = 0; p < fanins.size(); ++p) {
      const GateId fin = fanins[p];
      if (imp_.good(fin) != Logic::X) continue;
      const Logic fv = imp_.faulty_input(g, p);
      if (cv && fv == from_bool(*cv)) continue;  // permanently blocked pin
      // Non-controlling value lets the effect pass; for parity-type gates
      // any fixed value works.
      const bool v = cv ? !*cv : false;
      return std::make_pair(fin, v);
    }
  }
  // No frontier extension available, but that is not a *proof* of a dead
  // end (a faulty-machine blocking value may flip under a different
  // source assignment). Stay complete by brute-force extending the
  // assignment: pick any unassigned source feeding the circuit.
  for (GateId pi : nl_->inputs()) {
    if (imp_.good(pi) == Logic::X) return std::make_pair(pi, false);
  }
  for (GateId ff : nl_->dffs()) {
    if (imp_.good(ff) == Logic::X) return std::make_pair(ff, false);
  }
  // Everything assigned and still neither detected nor conflicting: with
  // all sources known every line is known, so the frontier must be empty
  // and the caller's dead-end handling (backtrack) is sound.
  return std::nullopt;
}

std::pair<GateId, Logic> Podem::backtrace(GateId node, bool value) {
  const Netlist& nl = *nl_;
  GateId cur = node;
  bool v = value;
  for (;;) {
    const GateType t = nl.types_flat()[cur];
    if (t == GateType::Input || t == GateType::Dff) {
      return {cur, from_bool(v)};
    }
    SP_ASSERT(t != GateType::Const0 && t != GateType::Const1,
              "backtrace reached a constant (objective unreachable)");
    const auto fanins = nl.fanin_span(cur);
    const bool want = is_inverting(t) ? !v : v;
    // Candidates: fanins still unknown in the good machine.
    candidates_.clear();
    for (GateId f : fanins) {
      if (imp_.good(f) == Logic::X) candidates_.push_back(f);
    }
    SP_ASSERT(!candidates_.empty(), "backtrace on a fully specified gate");
    const auto cv = controlling_value(t);
    bool next_value;
    GateId chosen;
    if (cv) {
      // want (pre-inversion sense) equal to the controlled AND/OR result?
      // AND-family: output sense 'want'==false needs one controlling 0;
      // 'want'==true needs all-1. OR-family dual.
      const bool needs_controlling = (want == (t == GateType::Or || t == GateType::Nor));
      if (needs_controlling) {
        chosen = opts_.directive->choose(nl, cur, candidates_, *cv);
        next_value = *cv;
      } else {
        chosen = opts_.directive->choose(nl, cur, candidates_, !*cv);
        next_value = !*cv;
      }
    } else if (t == GateType::Buf || t == GateType::Not) {
      chosen = fanins[0];
      next_value = want;
    } else {
      // XOR/XNOR/MUX: pick a candidate and aim for `want`; backtracking
      // corrects bad guesses.
      chosen = opts_.directive->choose(nl, cur, candidates_, want);
      next_value = want;
    }
    cur = chosen;
    v = next_value;
  }
}

void Podem::decide(GateId point, Logic value) {
  decisions_.push_back({point, value, false, imp_.mark()});
  imp_.assign(point, value);
}

bool Podem::backtrack() {
  while (!decisions_.empty()) {
    Decision& d = decisions_.back();
    imp_.undo(d.mark);
    if (!d.flipped) {
      d.flipped = true;
      d.value = logic_not(d.value);
      imp_.assign(d.point, d.value);
      ++backtracks_;
      return true;
    }
    decisions_.pop_back();
  }
  return false;
}

PodemResult Podem::finish(PodemStatus status) {
  PodemResult res;
  res.status = status;
  res.backtracks = backtracks_;
  if (status == PodemStatus::Detected) {
    for (GateId pi : nl_->inputs()) res.pattern.pi.push_back(imp_.good(pi));
    for (GateId ff : nl_->dffs()) res.pattern.ppi.push_back(imp_.good(ff));
  }
  Telemetry* t = opts_.telemetry;
  SP_TELEM_ADD(t, 0, CounterId::kPodemCalls, 1);
  SP_TELEM_ADD(t, 0, CounterId::kPodemBacktracks, backtracks_);
  SP_TELEM_ADD(t, 0, CounterId::kPodemXpathPrunes, xpath_prunes_);
  SP_TELEM_ADD(t, 0,
               status == PodemStatus::Detected     ? CounterId::kPodemDetected
               : status == PodemStatus::Untestable ? CounterId::kPodemUntestable
                                                   : CounterId::kPodemAborted,
               1);
  return res;
}

PodemResult Podem::generate(const Fault& fault) {
  fault_ = fault;
  dff_pin_fault_ =
      fault.pin >= 0 && nl_->types_flat()[fault.gate] == GateType::Dff;
  imp_.reset(fault);
  decisions_.clear();
  backtracks_ = 0;
  xpath_prunes_ = 0;
  cone_observed_.clear();
  for (GateId g : imp_.fault_cone()) {
    if (observable_[g]) cone_observed_.push_back(g);
  }
  mark_const_blocked();
  if (!opts_.constant_lines.empty()) {
    const Logic c = opts_.constant_lines[activation_line()];
    if (is_known(c) && as_bool(c) == fault_.stuck_at) {
      return finish(PodemStatus::Untestable);  // never activated
    }
  }
  const GateId site = fault_.gate;

  for (;;) {
    if (detected()) return finish(PodemStatus::Detected);
    bool dead = activation_impossible();
    if (!dead && !dff_pin_fault_) {
      // Before activation only the fault site can come to carry the
      // effect; after it, the D-frontier.
      std::span<const GateId> from(&site, 1);
      if (activated()) {
        compute_d_frontier();
        dead = frontier_.empty();
        from = frontier_;
      }
      if (!dead && !x_path_exists(from)) {
        dead = true;
        ++xpath_prunes_;
      }
    }
    std::optional<std::pair<GateId, bool>> obj;
    if (!dead) obj = objective(frontier_);
    if (dead || !obj) {
      if (backtracks_ >= opts_.backtrack_limit) {
        return finish(PodemStatus::Aborted);
      }
      if (!backtrack()) return finish(PodemStatus::Untestable);
      continue;
    }
    if (backtracks_ >= opts_.backtrack_limit) {
      return finish(PodemStatus::Aborted);
    }
    const auto [point, value] = backtrace(obj->first, obj->second);
    SP_ASSERT(imp_.good(point) == Logic::X, "backtrace chose an assigned point");
    decide(point, value);
  }
}

}  // namespace scanpower
