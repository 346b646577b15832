#include "scan/scan_sim.hpp"

#include <algorithm>
#include <bit>

#include "power/packed_leakage.hpp"
#include "util/assert.hpp"

namespace scanpower {

namespace {

/// Lanes of word `wi` that lie below `n`.
std::size_t lanes_in_word(std::size_t n, int wi) {
  const std::size_t lane0 = static_cast<std::size_t>(wi) * 64;
  return n > lane0 ? std::min<std::size_t>(64, n - lane0) : 0;
}

/// Loads lanes [0, n) of a source from value(lane); lanes past n are
/// known 0 and never read.
template <typename ValueOf>
void load_source(TernaryBlockSimulator& sim, GateId id, std::size_t n,
                 ValueOf&& value) {
  for (int wi = 0; wi < sim.words(); ++wi) {
    const std::size_t count = lanes_in_word(n, wi);
    PatternWord ones = 0;
    PatternWord xs = 0;
    for (std::size_t b = 0; b < count; ++b) {
      const Logic v = value(static_cast<std::size_t>(wi) * 64 + b);
      ones |= static_cast<PatternWord>(v == Logic::One) << b;
      xs |= static_cast<PatternWord>(v == Logic::X) << b;
    }
    sim.p1(id)[wi] = ones | xs;
    sim.p0(id)[wi] = ~ones | xs;
  }
}

/// Adds each gate's toggled load to cap[lane], against the lane before
/// it: the full load where both values are known and differ, half where
/// exactly one is X. Gates run in ascending id (one add per toggled lane,
/// the scalar walk's order). carry1/carry0 hold every gate's planes of
/// the lane before lane 0 (bit 0) and return those of the last lane;
/// `valid` masks the lanes that count.
void add_toggled_caps(const TernaryBlockSimulator& sim,
                      std::span<const double> loads,
                      std::span<const PatternWord> valid,
                      std::span<PatternWord> carry1,
                      std::span<PatternWord> carry0, std::span<double> cap) {
  for (GateId id = 0; id < loads.size(); ++id) {
    const double w = loads[id];
    const double half_w = 0.5 * w;
    PatternWord c1 = carry1[id];
    PatternWord c0 = carry0[id];
    for (int wi = 0; wi < sim.words(); ++wi) {
      const PatternWord v1 = sim.p1(id)[wi];
      const PatternWord v0 = sim.p0(id)[wi];
      const PatternWord u1 = (v1 << 1) | c1;  // the previous lane's planes
      const PatternWord u0 = (v0 << 1) | c0;
      c1 = v1 >> 63;
      c0 = v0 >> 63;
      // Known = exactly one plane set; two known values differ iff p1 does.
      PatternWord full = (v1 ^ v0) & (u1 ^ u0) & (v1 ^ u1) & valid[wi];
      PatternWord half = ((v1 & v0) ^ (u1 & u0)) & valid[wi];
      double* out = cap.data() + static_cast<std::size_t>(wi) * 64;
      for (; full != 0; full &= full - 1) out[std::countr_zero(full)] += w;
      for (; half != 0; half &= half - 1) {
        out[std::countr_zero(half)] += half_w;
      }
    }
    carry1[id] = c1;
    carry0[id] = c0;
  }
}

const Netlist& finalized(const Netlist& nl) {
  SP_CHECK(nl.finalized(), "ScanPowerEvaluator requires a finalized netlist");
  return nl;
}

}  // namespace

ScanPowerEvaluator::ScanPowerEvaluator(const Netlist& nl,
                                       const LeakageModel& leakage,
                                       const CapacitanceModel& caps,
                                       PowerConfig config)
    : nl_(&nl),
      config_(config),
      tables_(finalized(nl), leakage),
      loads_(caps.load_vector(nl)) {}

ScanPowerResult ScanPowerEvaluator::evaluate(const TestSet& tests,
                                             std::span<const Logic> pi_control,
                                             std::span<const Logic> mux_control,
                                             const ScanSimOptions& opts) {
  const Netlist& nl = *nl_;
  const std::size_t num_pi = nl.inputs().size();
  const std::size_t chain_len = nl.dffs().size();
  SP_CHECK(pi_control.empty() || pi_control.size() == num_pi,
           "evaluate: pi_control size mismatch");
  SP_CHECK(mux_control.empty() || mux_control.size() == chain_len,
           "evaluate: mux_control size mismatch");
  SP_CHECK(opts.num_chains >= 1, "evaluate: num_chains must be >= 1");

  // Chain position -> dffs() index. Default: netlist order (the paper's
  // "no scan cell reordering" configuration).
  const ScanChainOrder default_order = ScanChainOrder::identity(chain_len);
  const ScanChainOrder& chain_order =
      opts.chain_order ? *opts.chain_order : default_order;
  SP_CHECK(chain_order.order.size() == chain_len &&
               chain_order.is_permutation(),
           "evaluate: invalid chain order");
  const std::vector<std::size_t>& order = chain_order.order;
  const std::span<const TestPattern> pats = tests.patterns;
  for (const TestPattern& test : pats) {
    SP_CHECK(test.pi.size() == num_pi && test.ppi.size() == chain_len,
             "evaluate: pattern size mismatch");
  }

  // Multi-chain layout: position p belongs to chain p % k at in-chain
  // index p / k; all chains shift together for ceil(L/k) cycles, shorter
  // chains padded with leading zeros so every cell lands on its bit.
  const std::size_t k = static_cast<std::size_t>(opts.num_chains);
  const std::size_t lmax = chain_len == 0 ? 0 : (chain_len + k - 1) / k;
  const std::size_t per_pattern = lmax + (opts.include_capture_cycles ? 1 : 0);
  const std::size_t num_cycles = pats.size() * per_pattern;

  TernaryBlockSimulator sim(nl, kBlockWords);
  const std::size_t lanes = sim.lanes();

  // Captured responses, one pattern per lane: response[p * L + i] is the
  // D-pin value of dffs()[i] under (pi, ppi) of pattern p. Pattern p + 1
  // shifts it out. X pattern bits propagate, so a response bit may be X.
  std::vector<Logic> response;
  if (lmax > 0 && pats.size() > 1) {
    const std::size_t captured = pats.size() - 1;
    response.resize(captured * chain_len);
    for (std::size_t base = 0; base < captured; base += lanes) {
      const std::size_t n = std::min(lanes, captured - base);
      for (std::size_t i = 0; i < num_pi; ++i) {
        load_source(sim, nl.inputs()[i], n,
                    [&](std::size_t l) { return pats[base + l].pi[i]; });
      }
      for (std::size_t i = 0; i < chain_len; ++i) {
        load_source(sim, nl.dffs()[i], n,
                    [&](std::size_t l) { return pats[base + l].ppi[i]; });
      }
      sim.eval();
      for (std::size_t i = 0; i < chain_len; ++i) {
        const GateId d = nl.fanin_span(nl.dffs()[i])[0];
        for (std::size_t l = 0; l < n; ++l) {
          response[(base + l) * chain_len + i] = sim.lane_value(d, l);
        }
      }
    }
  }

  // Cycle lanes. Observed cycle `base + l` is cycle t of pattern p; t ==
  // lmax is the capture cycle (PIs and cells take the test's values).
  std::vector<std::size_t> lane_pat(lanes);
  std::vector<std::size_t> lane_t(lanes);
  const auto pi_value = [&](std::size_t i, std::size_t l) {
    const std::size_t p = lane_pat[l];
    if (lane_t[l] == lmax) return pats[p].pi[i];
    const Logic ctrl = pi_control.empty() ? Logic::X : pi_control[i];
    if (ctrl != Logic::X) return ctrl;
    return p == 0 ? Logic::Zero : pats[p - 1].pi[i];  // held from last test
  };
  // After shift t, in-chain index j of chain c holds the bit that entered
  // at shift t - j (a padding zero, or the test bit scanned in last-first)
  // or, for j > t, the previous content of index j - t - 1.
  const auto cell_value = [&](std::size_t pos) {
    const std::size_t cell = order[pos];
    const Logic mux = mux_control.empty() ? Logic::X : mux_control[cell];
    const std::size_t c = pos % k;
    const std::size_t j = pos / k;
    const std::size_t lc = (chain_len - c + k - 1) / k;
    const std::size_t pad = lmax - lc;
    return [&, cell, mux, c, j, lc, pad](std::size_t l) {
      const std::size_t p = lane_pat[l];
      const std::size_t t = lane_t[l];
      if (t == lmax) return pats[p].ppi[cell];
      if (mux != Logic::X) return mux;
      if (j <= t) {
        const std::size_t s = t - j;
        return s >= pad ? pats[p].ppi[order[c + (lc - 1 - (s - pad)) * k]]
                        : Logic::Zero;
      }
      if (p == 0) return opts.initial_state;
      return response[(p - 1) * chain_len + order[c + (j - t - 1) * k]];
    };
  };

  const PackedLeakageEvaluator leakage(nl, tables_, sim.backend());
  std::vector<double> leak(lanes);
  std::vector<double> cap(lanes);
  // Planes of each gate's last lane in the previous sweep (bit 0).
  std::vector<PatternWord> carry1(nl.num_gates(), 0);
  std::vector<PatternWord> carry0(nl.num_gates(), 0);

  // The reduction over cycles, in cycle order, with the arithmetic of a
  // cycle-by-cycle accumulator: the running toggle total is differenced
  // for the per-cycle peak, the first cycle counts no toggle.
  double toggle_total = 0.0;
  double last_total = 0.0;
  double peak_cap = 0.0;
  double leak_sum = 0.0;
  double peak_leak = 0.0;

  for (std::size_t base = 0; base < num_cycles; base += lanes) {
    const std::size_t n = std::min(lanes, num_cycles - base);
    for (std::size_t l = 0; l < n; ++l) {
      lane_pat[l] = (base + l) / per_pattern;
      lane_t[l] = (base + l) % per_pattern;
    }
    for (std::size_t i = 0; i < num_pi; ++i) {
      load_source(sim, nl.inputs()[i], n,
                  [&](std::size_t l) { return pi_value(i, l); });
    }
    for (std::size_t pos = 0; pos < chain_len; ++pos) {
      load_source(sim, nl.dffs()[order[pos]], n, cell_value(pos));
    }
    sim.eval();
    leakage.eval(sim, leak);

    PatternWord valid[kBlockWords];
    for (int wi = 0; wi < kBlockWords; ++wi) {
      const std::size_t count = lanes_in_word(n, wi);
      valid[wi] = count == 64 ? ~PatternWord{0} : (PatternWord{1} << count) - 1;
    }
    if (base == 0) valid[0] &= ~PatternWord{1};  // the first cycle
    std::fill(cap.begin(), cap.end(), 0.0);
    add_toggled_caps(sim, loads_, valid, carry1, carry0, cap);

    for (std::size_t l = 0; l < n; ++l) {
      toggle_total += cap[l];
      const double cycle_cap = toggle_total - last_total;
      last_total = toggle_total;
      peak_cap = std::max(peak_cap, cycle_cap);
      peak_leak = std::max(peak_leak, leak[l]);
      leak_sum += leak[l];
    }
  }

  const double vdd = config_.vdd;
  const std::size_t transitions = num_cycles == 0 ? 0 : num_cycles - 1;
  ScanPowerResult res;
  res.mean_toggled_cap_ff =
      transitions ? toggle_total / static_cast<double>(transitions) : 0.0;
  // E/cycle = 1/2 VDD^2 * C_toggled;  C in fF -> 1e-15 F;  W -> 1e6 uW.
  res.dynamic_per_hz_uw =
      0.5 * vdd * vdd * (res.mean_toggled_cap_ff * 1e-15) * 1e6;
  res.mean_leakage_na =
      num_cycles ? leak_sum / static_cast<double>(num_cycles) : 0.0;
  res.static_uw = res.mean_leakage_na * vdd * 1e-3;
  res.peak_dynamic_per_hz_uw = 0.5 * vdd * vdd * peak_cap * 1e-15 * 1e6;
  res.peak_leakage_na = peak_leak;
  res.cycles = num_cycles;
  return res;
}

}  // namespace scanpower
