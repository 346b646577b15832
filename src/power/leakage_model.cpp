#include "power/leakage_model.hpp"

#include <algorithm>
#include <bit>
#include <map>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace scanpower {

namespace {

/// Linear interpolation of single-off-device leakage across stack
/// positions: position 0 suppresses most (source closest to the internal
/// node chain), the last position least.
double interp_position(double strong, double weak, int pos, int width) {
  if (width <= 1) return weak;
  return strong + (weak - strong) * static_cast<double>(pos) /
                      static_cast<double>(width - 1);
}

}  // namespace

LeakageModel::LeakageModel(LeakageParams params) : params_(params) {
  // Precompute tables for the mapping library: INV + NAND/NOR widths 2..4.
  tables_.assign(kNumGateTypes, {});
  auto fill = [&](GateType t, int width) {
    auto& per_width = tables_[static_cast<std::size_t>(t)];
    if (per_width.size() <= static_cast<std::size_t>(width)) {
      per_width.resize(static_cast<std::size_t>(width) + 1);
    }
    auto& table = per_width[static_cast<std::size_t>(width)];
    table.resize(1u << width);
    for (unsigned p = 0; p < table.size(); ++p) {
      switch (t) {
        case GateType::Not: table[p] = inv_leakage(p); break;
        case GateType::Nand: table[p] = nand_leakage(width, p); break;
        case GateType::Nor: table[p] = nor_leakage(width, p); break;
        default: SP_ASSERT(false, "unexpected table fill");
      }
    }
  };
  fill(GateType::Not, 1);
  for (int w = 2; w <= kMaxWidth; ++w) {
    fill(GateType::Nand, w);
    fill(GateType::Nor, w);
  }
}

double LeakageModel::nand_leakage(int width, unsigned pattern) const {
  const unsigned all = (1u << width) - 1;
  if ((pattern & all) == all) {
    // Output 0: every PMOS of the parallel pull-up is off; every NMOS on.
    return width * params_.pmos_off_parallel +
           width * params_.gate_leak_nmos_on;
  }
  // Output 1: the NMOS series stack is blocked by the off devices.
  int num_off = 0;
  int first_off = -1;
  for (int i = 0; i < width; ++i) {
    if (((pattern >> i) & 1u) == 0) {
      ++num_off;
      if (first_off < 0) first_off = i;
    }
  }
  const double single = interp_position(params_.nmos_off_strong,
                                        params_.nmos_off_weak, first_off, width);
  double sub = single;
  for (int k = 1; k < num_off; ++k) sub *= params_.nmos_stack_beta;
  const int num_on = width - num_off;
  // Off inputs drive ON PMOS devices (gate tunneling), on inputs drive ON
  // NMOS devices.
  return sub + num_off * params_.gate_leak_pmos_on +
         num_on * params_.gate_leak_nmos_on;
}

double LeakageModel::nor_leakage(int width, unsigned pattern) const {
  const unsigned all = (1u << width) - 1;
  if ((pattern & all) == 0) {
    // Output 1: every NMOS of the parallel pull-down is off; PMOS stack on.
    return width * params_.nmos_off_parallel +
           width * params_.gate_leak_pmos_on;
  }
  // Output 0 or blocked pull-up: the PMOS series stack has off devices at
  // the pins driven to 1.
  int num_off = 0;
  int first_off = -1;
  for (int i = 0; i < width; ++i) {
    if (((pattern >> i) & 1u) == 1) {
      ++num_off;
      if (first_off < 0) first_off = i;
    }
  }
  const double single = interp_position(params_.pmos_off_strong,
                                        params_.pmos_off_weak, first_off, width);
  double sub = single;
  for (int k = 1; k < num_off; ++k) sub *= params_.pmos_stack_beta;
  const int num_on_pmos = width - num_off;
  return sub + num_off * params_.gate_leak_nmos_on +
         num_on_pmos * params_.gate_leak_pmos_on;
}

double LeakageModel::inv_leakage(unsigned pattern) const {
  if ((pattern & 1u) == 0) {
    // NMOS off, PMOS on.
    return params_.nmos_off_parallel + params_.gate_leak_pmos_on;
  }
  return params_.pmos_off_parallel + params_.gate_leak_nmos_on;
}

double LeakageModel::composite_leakage(GateType type, int width,
                                       unsigned pattern) const {
  auto bit = [&](int i) { return ((pattern >> i) & 1u) != 0; };
  switch (type) {
    case GateType::Buf: {
      // Two inverters back to back.
      return inv_leakage(pattern & 1u) + inv_leakage(bit(0) ? 0u : 1u);
    }
    case GateType::And: {
      bool all = true;
      for (int i = 0; i < width; ++i) all = all && bit(i);
      return nand_leakage(width, pattern) + inv_leakage(all ? 0u : 1u);
    }
    case GateType::Or: {
      bool any = false;
      for (int i = 0; i < width; ++i) any = any || bit(i);
      return nor_leakage(width, pattern) + inv_leakage(any ? 0u : 1u);
    }
    case GateType::Xor:
    case GateType::Xnor: {
      // Techmap structure: chain of 2-input XOR stages, each built from
      // four NAND2 cells; XNOR appends an inverter.
      double total = 0.0;
      bool acc = bit(0);
      for (int i = 1; i < width; ++i) {
        const bool b = bit(i);
        const bool m = !(acc && b);
        const bool pa = !(acc && m);
        const bool pb = !(b && m);
        total += nand_leakage(2, static_cast<unsigned>(acc) |
                                     (static_cast<unsigned>(b) << 1));
        total += nand_leakage(2, static_cast<unsigned>(acc) |
                                     (static_cast<unsigned>(m) << 1));
        total += nand_leakage(2, static_cast<unsigned>(b) |
                                     (static_cast<unsigned>(m) << 1));
        total += nand_leakage(2, static_cast<unsigned>(pa) |
                                     (static_cast<unsigned>(pb) << 1));
        acc = !(pa && pb);
      }
      if (type == GateType::Xnor) {
        total += inv_leakage(acc ? 1u : 0u);
      }
      return total;
    }
    case GateType::Mux: {
      // inv(s); ta = NAND(a, !s); tb = NAND(b, s); out = NAND(ta, tb).
      const bool s = bit(0);
      const bool a = bit(1);
      const bool b = bit(2);
      const bool ns = !s;
      const bool ta = !(a && ns);
      const bool tb = !(b && s);
      double total = inv_leakage(s ? 1u : 0u);
      total += nand_leakage(2, static_cast<unsigned>(a) |
                                   (static_cast<unsigned>(ns) << 1));
      total += nand_leakage(2, static_cast<unsigned>(b) |
                                   (static_cast<unsigned>(s) << 1));
      total += nand_leakage(2, static_cast<unsigned>(ta) |
                                   (static_cast<unsigned>(tb) << 1));
      return total;
    }
    default:
      SP_ASSERT(false, "composite_leakage: unsupported type");
  }
}

double LeakageModel::cell_leakage_na(GateType type, int width,
                                     unsigned pattern) const {
  switch (type) {
    case GateType::Input:
    case GateType::Dff:
    case GateType::Const0:
    case GateType::Const1:
      return 0.0;  // the paper reports the combinational part only
    case GateType::Not:
      return tables_[static_cast<std::size_t>(type)][1][pattern & 1u];
    case GateType::Nand:
    case GateType::Nor: {
      SP_CHECK(width >= 2, "leakage: gate width must be >= 2");
      if (width <= kMaxWidth) {
        return tables_[static_cast<std::size_t>(type)]
                      [static_cast<std::size_t>(width)]
                      [pattern & ((1u << width) - 1)];
      }
      // Wider than the characterized library: compute analytically.
      return type == GateType::Nand ? nand_leakage(width, pattern)
                                    : nor_leakage(width, pattern);
    }
    default:
      return composite_leakage(type, width, pattern);
  }
}

double LeakageModel::cell_expected_leakage_na(
    GateType type, std::span<const Logic> ins) const {
  const int width = static_cast<int>(ins.size());
  SP_CHECK(width <= 20, "leakage: gate too wide");
  // Collect X positions; average uniformly over their assignments.
  unsigned base = 0;
  std::vector<int> xpos;
  for (int i = 0; i < width; ++i) {
    if (ins[static_cast<std::size_t>(i)] == Logic::One) base |= 1u << i;
    if (ins[static_cast<std::size_t>(i)] == Logic::X) xpos.push_back(i);
  }
  if (xpos.empty()) return cell_leakage_na(type, width, base);
  SP_CHECK(xpos.size() <= 12, "leakage: too many unknown inputs on one gate");
  double sum = 0.0;
  const unsigned combos = 1u << xpos.size();
  for (unsigned c = 0; c < combos; ++c) {
    unsigned p = base;
    for (std::size_t j = 0; j < xpos.size(); ++j) {
      if ((c >> j) & 1u) p |= 1u << xpos[j];
    }
    sum += cell_leakage_na(type, width, p);
  }
  return sum / static_cast<double>(combos);
}

double LeakageModel::circuit_leakage_na(const Netlist& nl,
                                        std::span<const Logic> values) const {
  SP_CHECK(values.size() == nl.num_gates(),
           "circuit_leakage_na: value vector size mismatch");
  double total = 0.0;
  std::vector<Logic> ins;
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    const Gate& g = nl.gate(id);
    if (!is_combinational(g.type) || g.type == GateType::Const0 ||
        g.type == GateType::Const1) {
      continue;
    }
    ins.clear();
    for (GateId f : g.fanins) ins.push_back(values[f]);
    total += cell_expected_leakage_na(g.type, ins);
  }
  return total;
}

double LeakageModel::circuit_leakage_power_uw(const Netlist& nl,
                                              std::span<const Logic> values,
                                              double vdd) const {
  // nA * V = nW; convert to uW.
  return circuit_leakage_na(nl, values) * vdd * 1e-3;
}

GateLeakageTables::GateLeakageTables(const Netlist& nl,
                                     const LeakageModel& model)
    : model_(&model) {
  const std::size_t n = nl.num_gates();
  width_.assign(n, 0);
  leakless_.assign(n, 1);
  offset_.assign(n, kNone);
  xoffset_.assign(n, kNone);

  // Shared tables keyed by (type, width): the leakage of a cell depends
  // only on its shape and input state, never on which gate instantiates
  // it.
  std::map<std::pair<GateType, int>, std::pair<std::uint32_t, std::uint32_t>>
      shapes;
  for (GateId id = 0; id < n; ++id) {
    const GateType t = nl.type(id);
    if (!is_combinational(t) || t == GateType::Const0 ||
        t == GateType::Const1) {
      continue;  // sources and constants report zero leakage
    }
    const int w = static_cast<int>(nl.fanin_span(id).size());
    // Same ceiling as cell_expected_leakage_na: wider gates have no
    // leakage semantics anywhere in the stack, and width_ must not wrap.
    SP_CHECK(w <= 20, "leakage tables: gate too wide");
    leakless_[id] = 0;
    width_[id] = static_cast<std::uint8_t>(w);
    if (w > kMaxTableWidth) continue;  // analytic per-lane fallback

    auto [it, inserted] = shapes.try_emplace({t, w}, kNone, kNone);
    if (inserted) {
      const std::uint32_t off = static_cast<std::uint32_t>(storage_.size());
      const unsigned states = 1u << w;
      const auto padded = [](unsigned entries) {
        return std::max(entries, static_cast<unsigned>(kPaddedEntries));
      };
      for (unsigned s = 0; s < states; ++s) {
        storage_.push_back(model.cell_leakage_na(t, w, s));
      }
      storage_.resize(off + padded(states), 0.0);
      std::uint32_t xoff = kNone;
      if (w <= kMaxXTableWidth) {
        xoff = static_cast<std::uint32_t>(xstorage_.size());
        xstorage_.resize(xstorage_.size() + padded(1u << (2 * w)), 0.0);
        double* xt = xstorage_.data() + xoff;
        const double* base = storage_.data() + off;
        for (unsigned m = 0; m < states; ++m) {
          // X positions of this mask, ascending -- the same enumeration
          // order cell_expected_leakage_na uses, so sums round
          // identically.
          int xpos[kMaxXTableWidth];
          int nx = 0;
          for (int b = 0; b < w; ++b) {
            if ((m >> b) & 1u) xpos[nx++] = b;
          }
          const unsigned combos = 1u << nx;
          for (unsigned s = 0; s < states; ++s) {
            if ((s & m) != 0) continue;  // state bits under X are unused
            double sum = 0.0;
            for (unsigned c = 0; c < combos; ++c) {
              unsigned p = s;
              for (int j = 0; j < nx; ++j) {
                if ((c >> j) & 1u) p |= 1u << xpos[j];
              }
              sum += base[p];
            }
            xt[s | (m << w)] =
                nx == 0 ? base[s] : sum / static_cast<double>(combos);
          }
        }
      }
      it->second = {off, xoff};
    }
    offset_[id] = it->second.first;
    xoffset_[id] = it->second.second;
  }
}

std::pair<unsigned, double> LeakageModel::min_leakage_pattern(GateType type,
                                                              int width) const {
  unsigned best = 0;
  double best_leak = cell_leakage_na(type, width, 0);
  for (unsigned p = 1; p < (1u << width); ++p) {
    const double l = cell_leakage_na(type, width, p);
    if (l < best_leak) {
      best_leak = l;
      best = p;
    }
  }
  return {best, best_leak};
}

}  // namespace scanpower
