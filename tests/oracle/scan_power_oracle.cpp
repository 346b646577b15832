#include "oracle/scan_power_oracle.hpp"

#include <algorithm>
#include <cstring>

#include "sim/simulator.hpp"
#include "util/assert.hpp"

namespace scanpower::oracle {

double weighted_toggles(std::span<const Logic> before,
                        std::span<const Logic> after,
                        std::span<const double> weights) {
  SP_CHECK(before.size() == after.size() && before.size() == weights.size(),
           "weighted_toggles: size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    const Logic a = before[i];
    const Logic b = after[i];
    if (a == b) continue;
    if (a == Logic::X || b == Logic::X) {
      sum += 0.5 * weights[i];  // expectation over the unknown endpoint
    } else {
      sum += weights[i];
    }
  }
  return sum;
}

void ToggleAccumulator::observe(std::span<const Logic> state) {
  if (has_prev_) {
    total_ += weighted_toggles(prev_, state, weights_);
    ++cycles_;
  }
  prev_.assign(state.begin(), state.end());
  has_prev_ = true;
}

void ToggleAccumulator::reset() {
  prev_.clear();
  total_ = 0.0;
  cycles_ = 0;
  has_prev_ = false;
}

PowerEstimator::PowerEstimator(const Netlist& nl, const LeakageModel& leakage,
                               const CapacitanceModel& caps, PowerConfig config)
    : nl_(&nl),
      leakage_(&leakage),
      config_(config),
      toggles_(caps.load_vector(nl)) {}

void PowerEstimator::observe(std::span<const Logic> values) {
  SP_CHECK(values.size() == nl_->num_gates(),
           "PowerEstimator::observe: size mismatch");
  toggles_.observe(values);
  const double cycle_cap = toggles_.total() - last_total_;
  last_total_ = toggles_.total();
  peak_cap_ff_ = std::max(peak_cap_ff_, cycle_cap);
  const double leak = leakage_->circuit_leakage_na(*nl_, values);
  peak_leakage_na_ = std::max(peak_leakage_na_, leak);
  leakage_sum_na_ += leak;
  ++leakage_samples_;
}

double PowerEstimator::peak_dynamic_per_hz_uw() const {
  return 0.5 * config_.vdd * config_.vdd * peak_cap_ff_ * 1e-15 * 1e6;
}

double PowerEstimator::dynamic_per_hz_uw() const {
  // E/cycle = 1/2 VDD^2 * C_toggled;  C in fF -> 1e-15 F;  W -> 1e6 uW.
  const double cap_f = mean_toggled_cap_ff() * 1e-15;
  return 0.5 * config_.vdd * config_.vdd * cap_f * 1e6;
}

double PowerEstimator::mean_leakage_na() const {
  return leakage_samples_
             ? leakage_sum_na_ / static_cast<double>(leakage_samples_)
             : 0.0;
}

double PowerEstimator::static_uw() const {
  return mean_leakage_na() * config_.vdd * 1e-3;
}

std::vector<Logic> simulate_chain_loading(const ScanChainOrder& order,
                                          std::span<const Logic> ppi,
                                          int num_chains, Logic initial) {
  SP_CHECK(num_chains >= 1, "simulate_chain_loading: num_chains must be >= 1");
  SP_CHECK(order.order.size() == ppi.size() && order.is_permutation(),
           "simulate_chain_loading: invalid order");
  const std::size_t len = ppi.size();
  const std::size_t k = static_cast<std::size_t>(num_chains);
  const std::size_t lmax = len == 0 ? 0 : (len + k - 1) / k;
  std::vector<Logic> chain(len, initial);
  for (std::size_t t = 0; t < lmax; ++t) {
    for (std::size_t c = 0; c < k; ++c) {
      const std::size_t lc = c < len ? (len - c + k - 1) / k : 0;
      if (lc == 0) continue;
      for (std::size_t j = lc; j-- > 1;) {
        chain[c + j * k] = chain[c + (j - 1) * k];
      }
      const std::size_t pad = lmax - lc;
      chain[c] = t >= pad ? ppi[order.order[c + (lc - 1 - (t - pad)) * k]]
                          : Logic::Zero;
    }
  }
  return chain;
}

ScanPowerOracle::ScanPowerOracle(const Netlist& nl, const LeakageModel& leakage,
                                 const CapacitanceModel& caps,
                                 PowerConfig config)
    : nl_(&nl), leakage_(&leakage), caps_(&caps), config_(config) {
  SP_CHECK(nl.finalized(), "ScanPowerOracle requires a finalized netlist");
}

ScanPowerResult ScanPowerOracle::evaluate(const TestSet& tests,
                                          std::span<const Logic> pi_control,
                                          std::span<const Logic> mux_control,
                                          const ScanSimOptions& opts,
                                          const CycleObserver& observer) {
  const Netlist& nl = *nl_;
  const std::size_t num_pi = nl.inputs().size();
  const std::size_t chain_len = nl.dffs().size();
  SP_CHECK(pi_control.empty() || pi_control.size() == num_pi,
           "evaluate: pi_control size mismatch");
  SP_CHECK(mux_control.empty() || mux_control.size() == chain_len,
           "evaluate: mux_control size mismatch");

  Simulator sim(nl);
  PowerEstimator power(nl, *leakage_, *caps_, config_);

  // Chain position -> dffs() index. Default: netlist order (the paper's
  // "no scan cell reordering" configuration).
  ScanChainOrder default_order = ScanChainOrder::identity(chain_len);
  const ScanChainOrder& order =
      opts.chain_order ? *opts.chain_order : default_order;
  SP_CHECK(order.order.size() == chain_len && order.is_permutation(),
           "evaluate: invalid chain order");

  // Chain state indexed by chain *position*. Scan-in enters at position 0
  // and moves toward the tail.
  std::vector<Logic> chain(chain_len, opts.initial_state);
  // PI values held from the previously applied test (traditional scan).
  std::vector<Logic> held_pi(num_pi, Logic::Zero);

  auto cell_at = [&](std::size_t pos) { return nl.dffs()[order.order[pos]]; };
  auto mux_value = [&](std::size_t pos) -> Logic {
    return mux_control.empty() ? Logic::X : mux_control[order.order[pos]];
  };

  std::size_t observed_cycles = 0;
  auto observe = [&]() {
    power.observe(sim.values());
    if (observer) observer(observed_cycles, sim.values());
    ++observed_cycles;
  };

  auto drive_shift_cycle = [&]() {
    // What the combinational logic sees during this shift cycle.
    for (std::size_t k = 0; k < num_pi; ++k) {
      const Logic ctrl = pi_control.empty() ? Logic::X : pi_control[k];
      sim.set_input(nl.inputs()[k], ctrl == Logic::X ? held_pi[k] : ctrl);
    }
    for (std::size_t pos = 0; pos < chain_len; ++pos) {
      const Logic mv = mux_value(pos);
      sim.set_state(cell_at(pos), mv == Logic::X ? chain[pos] : mv);
    }
    sim.eval_incremental();
    observe();
  };

  // Multi-chain layout: position p belongs to chain p % k at in-chain
  // index p / k; all chains shift together for ceil(L/k) cycles, shorter
  // chains padded with leading zeros so every cell lands on its bit.
  const std::size_t k = static_cast<std::size_t>(opts.num_chains);
  SP_CHECK(opts.num_chains >= 1, "evaluate: num_chains must be >= 1");
  const std::size_t lmax = chain_len == 0 ? 0 : (chain_len + k - 1) / k;
  auto chain_length = [&](std::size_t c) {
    return c < chain_len ? (chain_len - c + k - 1) / k : 0;
  };

  for (const TestPattern& test : tests.patterns) {
    SP_CHECK(test.pi.size() == num_pi && test.ppi.size() == chain_len,
             "evaluate: pattern size mismatch");
    // ---- shift phase: ceil(L/k) cycles ---------------------------------
    for (std::size_t t = 0; t < lmax; ++t) {
      for (std::size_t c = 0; c < k; ++c) {
        const std::size_t lc = chain_length(c);
        if (lc == 0) continue;
        for (std::size_t j = lc; j-- > 1;) {
          chain[c + j * k] = chain[c + (j - 1) * k];
        }
        const std::size_t pad = lmax - lc;
        Logic incoming = Logic::Zero;
        if (t >= pad) {
          const std::size_t idx = lc - 1 - (t - pad);
          incoming = test.ppi[order.order[c + idx * k]];
        }
        chain[c] = incoming;
      }
      drive_shift_cycle();
    }
    // After the shifts: chain[pos] == test.ppi[order[pos]].
    // ---- capture cycle -------------------------------------------------
    // Shift-enable drops: muxes go transparent, PIs take the test values,
    // the response is captured into the cells.
    for (std::size_t k = 0; k < num_pi; ++k) {
      sim.set_input(nl.inputs()[k], test.pi[k]);
      held_pi[k] = test.pi[k];
    }
    for (std::size_t pos = 0; pos < chain_len; ++pos) {
      sim.set_state(cell_at(pos), chain[pos]);
    }
    sim.eval_incremental();
    if (opts.include_capture_cycles) observe();
    // Captured response becomes the chain content for the next scan-out.
    // An X response bit (possible when patterns carry X) shifts out as X.
    for (std::size_t pos = 0; pos < chain_len; ++pos) {
      chain[pos] = sim.next_state(cell_at(pos));
    }
  }

  ScanPowerResult res;
  res.dynamic_per_hz_uw = power.dynamic_per_hz_uw();
  res.static_uw = power.static_uw();
  res.mean_toggled_cap_ff = power.mean_toggled_cap_ff();
  res.mean_leakage_na = power.mean_leakage_na();
  res.peak_dynamic_per_hz_uw = power.peak_dynamic_per_hz_uw();
  res.peak_leakage_na = power.peak_leakage_na();
  res.cycles = power.cycles_observed();
  return res;
}

bool bit_identical(const ScanPowerResult& a, const ScanPowerResult& b) {
  const auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  return same(a.dynamic_per_hz_uw, b.dynamic_per_hz_uw) &&
         same(a.static_uw, b.static_uw) &&
         same(a.mean_toggled_cap_ff, b.mean_toggled_cap_ff) &&
         same(a.mean_leakage_na, b.mean_leakage_na) &&
         same(a.peak_dynamic_per_hz_uw, b.peak_dynamic_per_hz_uw) &&
         same(a.peak_leakage_na, b.peak_leakage_na) && a.cycles == b.cycles;
}

}  // namespace scanpower::oracle
