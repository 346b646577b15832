#include "atpg/implication.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace scanpower {

namespace {

/// Kleene evaluation of one gate straight off its CSR fanin row (the same
/// function as eval_gate). Input `forced_pin`, if any, reads `forced`
/// instead of its driver's value.
Logic eval_row(GateType t, std::span<const GateId> fi, const Logic* v,
               std::size_t forced_pin, Logic forced) {
  const auto in = [&](std::size_t p) {
    return p == forced_pin ? forced : v[fi[p]];
  };
  switch (t) {
    case GateType::Const0:
      return Logic::Zero;
    case GateType::Const1:
      return Logic::One;
    case GateType::Buf:
      return in(0);
    case GateType::Not:
      return logic_not(in(0));
    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor: {
      const bool and_family = t == GateType::And || t == GateType::Nand;
      const Logic dominant = and_family ? Logic::Zero : Logic::One;
      Logic r = and_family ? Logic::One : Logic::Zero;
      for (std::size_t p = 0; p < fi.size(); ++p) {
        const Logic a = in(p);
        if (a == dominant) {
          r = dominant;
          break;
        }
        if (a == Logic::X) r = Logic::X;
      }
      return t == GateType::Nand || t == GateType::Nor ? logic_not(r) : r;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      bool acc = t == GateType::Xnor;
      for (std::size_t p = 0; p < fi.size(); ++p) {
        const Logic a = in(p);
        if (a == Logic::X) return Logic::X;
        acc ^= as_bool(a);
      }
      return from_bool(acc);
    }
    case GateType::Mux: {
      const Logic s = in(0);
      const Logic a = in(1);
      const Logic b = in(2);
      if (s == Logic::Zero) return a;
      if (s == Logic::One) return b;
      return a == b ? a : Logic::X;
    }
    case GateType::Input:
    case GateType::Dff:
      break;
  }
  SP_ASSERT(false, "eval_row called on a source (Input/Dff)");
}

}  // namespace

ImplicationEngine::ImplicationEngine(const Netlist& nl)
    : nl_(&nl), types_(nl.types_flat()), levels_(nl.levels_flat()) {
  SP_CHECK(nl.finalized(), "ImplicationEngine requires a finalized netlist");
  const std::size_t n = nl.num_gates();
  good_.assign(n, Logic::X);
  faulty_.assign(n, Logic::X);
  in_cone_.assign(n, 0);
  queued_.assign(n, 0);

  // Bucket L gets room for every combinational gate of level L.
  bucket_begin_.assign(static_cast<std::size_t>(nl.depth()) + 2, 0);
  for (GateId g : nl.topo_order()) ++bucket_begin_[levels_[g] + 1];
  for (std::size_t l = 1; l < bucket_begin_.size(); ++l) {
    bucket_begin_[l] += bucket_begin_[l - 1];
  }
  bucket_end_ = bucket_begin_;
  queue_.resize(nl.topo_order().size());

  // The every-source-X state: one event pass over every gate.
  for (GateId g : nl.topo_order()) enqueue(g);
  propagate();
  base_ = good_;
  trail_.clear();
}

void ImplicationEngine::enqueue(GateId g) {
  if (queued_[g]) return;
  queued_[g] = 1;
  const std::uint32_t l = levels_[g];
  queue_[bucket_end_[l]++] = g;
  lo_level_ = std::min(lo_level_, l);
  hi_level_ = std::max(hi_level_, l);
}

void ImplicationEngine::enqueue_fanouts(GateId g) {
  for (GateId f : nl_->fanout_span(g)) {
    if (types_[f] != GateType::Dff) enqueue(f);  // a D pin ends the view
  }
}

void ImplicationEngine::set(GateId g, Logic good, Logic faulty) {
  trail_.push_back({g, good_[g], faulty_[g]});
  good_[g] = good;
  faulty_[g] = faulty;
  enqueue_fanouts(g);
}

void ImplicationEngine::evaluate(GateId g) {
  const GateType t = types_[g];
  const std::span<const GateId> fi = nl_->fanin_span(g);
  const Logic ng = eval_row(t, fi, good_.data(), fi.size(), Logic::X);
  Logic nf = ng;
  if (in_cone_[g]) {
    nf = g == stem_site_
             ? stuck_
             : eval_row(t, fi, faulty_.data(),
                        g == pin_site_ ? pin_ : fi.size(), stuck_);
  }
  if (ng != good_[g] || nf != faulty_[g]) set(g, ng, nf);
}

void ImplicationEngine::propagate() {
  // Fanouts sit on strictly higher levels, so a bucket never grows while
  // it is drained and each gate is evaluated after all of its fanins. An
  // empty queue has lo_level_ = kNoLevel > hi_level_.
  for (std::uint32_t l = lo_level_; l <= hi_level_; ++l) {
    for (std::uint32_t i = bucket_begin_[l]; i < bucket_end_[l]; ++i) {
      const GateId g = queue_[i];
      queued_[g] = 0;
      evaluate(g);
    }
    bucket_end_[l] = bucket_begin_[l];
  }
  lo_level_ = kNoLevel;
  hi_level_ = 0;
}

void ImplicationEngine::assign(GateId src, Logic v) {
  SP_ASSERT(types_[src] == GateType::Input || types_[src] == GateType::Dff,
            "ImplicationEngine::assign on a non-source gate");
  const Logic nf = src == stem_site_ ? stuck_ : v;
  if (good_[src] == v && faulty_[src] == nf) return;
  set(src, v, nf);
  propagate();
}

void ImplicationEngine::undo(std::size_t mark) {
  while (trail_.size() > mark) {
    const TrailEntry& e = trail_.back();
    good_[e.id] = e.good;
    faulty_[e.id] = e.faulty;
    trail_.pop_back();
  }
}

void ImplicationEngine::reset(const Fault& fault) {
  for (GateId g : cone_) in_cone_[g] = 0;
  cone_.clear();
  stem_site_ = kInvalidGate;
  pin_site_ = kInvalidGate;
  std::copy(base_.begin(), base_.end(), good_.begin());
  std::copy(base_.begin(), base_.end(), faulty_.begin());
  trail_.clear();
  if (fault.pin >= 0 && types_[fault.gate] == GateType::Dff) return;

  const GateId site = fault.gate;
  stuck_ = from_bool(fault.stuck_at);
  if (fault.pin < 0) {
    stem_site_ = site;
  } else {
    pin_site_ = site;
    pin_ = static_cast<std::size_t>(fault.pin);
  }
  // The cone doubles as its own BFS worklist.
  in_cone_[site] = 1;
  cone_.push_back(site);
  for (std::size_t i = 0; i < cone_.size(); ++i) {
    for (GateId f : nl_->fanout_span(cone_[i])) {
      if (types_[f] == GateType::Dff || in_cone_[f]) continue;
      in_cone_[f] = 1;
      cone_.push_back(f);
    }
  }
  std::sort(cone_.begin(), cone_.end(), [this](GateId a, GateId b) {
    return levels_[a] != levels_[b] ? levels_[a] > levels_[b] : a < b;
  });

  if (types_[site] == GateType::Input || types_[site] == GateType::Dff) {
    faulty_[site] = stuck_;
    enqueue_fanouts(site);
  } else {
    enqueue(site);
  }
  propagate();
  trail_.clear();
}

}  // namespace scanpower
