#pragma once
// Scalar scan-shift power oracle (test-only).
//
// The reference the packed ScanPowerEvaluator is checked against, bit for
// bit: one 3-valued Simulator pass per shift cycle, every cycle's settled
// value vector fed to a PowerEstimator. The estimator accumulates
//   - weighted toggles: sum over cycles of sum(C_L over toggled gates)
//   - leakage samples : per-cycle total leakage current
// and reports
//   - dynamic_per_hz_uw(): (1/2) VDD^2 * mean toggled capacitance  [uW/Hz]
//   - static_uw()        : VDD * mean leakage current              [uW]
// matching the two columns of Table I ("values in the dynamic columns must
// be multiplied by the working frequency").
//
// Toggle counting follows eq. (1) of the paper under a zero-delay model:
// a cycle's switching activity is the set of gates whose output changed.
// Transitions to or from X count half a toggle (expectation over the
// unknown value); X -> X counts zero.

#include <functional>
#include <span>
#include <vector>

#include "atpg/pattern.hpp"
#include "netlist/netlist.hpp"
#include "power/leakage_model.hpp"
#include "scan/scan_sim.hpp"
#include "sim/logic.hpp"
#include "timing/delay_model.hpp"

namespace scanpower::oracle {

/// Weighted toggle sum between two full value vectors.
double weighted_toggles(std::span<const Logic> before,
                        std::span<const Logic> after,
                        std::span<const double> weights);

/// Accumulates weighted toggles over a per-cycle series of states.
class ToggleAccumulator {
 public:
  explicit ToggleAccumulator(std::vector<double> weights)
      : weights_(std::move(weights)) {}

  /// Records the first state without counting, then accumulates toggles
  /// against the previous state.
  void observe(std::span<const Logic> state);

  double total() const { return total_; }
  std::size_t cycles() const { return cycles_; }
  /// Mean weighted toggles per observed transition (cycle).
  double per_cycle() const {
    return cycles_ ? total_ / static_cast<double>(cycles_) : 0.0;
  }
  void reset();

 private:
  std::vector<double> weights_;
  std::vector<Logic> prev_;
  double total_ = 0.0;
  std::size_t cycles_ = 0;
  bool has_prev_ = false;
};

/// Combined dynamic + static power over a sequence of circuit states.
class PowerEstimator {
 public:
  PowerEstimator(const Netlist& nl, const LeakageModel& leakage,
                 const CapacitanceModel& caps, PowerConfig config = {});

  /// Records one clock cycle's settled value vector (size = num_gates).
  /// The first observation initializes toggle counting; every observation
  /// contributes one leakage sample.
  void observe(std::span<const Logic> values);

  /// Mean toggled load capacitance per cycle (fF). Zero until two
  /// observations have been made.
  double mean_toggled_cap_ff() const { return toggles_.per_cycle(); }

  /// Peak dynamic power per Hz in uW/Hz: the worst single-cycle toggled
  /// capacitance, the peak-power proxy (cf. [Sankaralingam & Touba],
  /// reference [6] of the paper).
  double peak_dynamic_per_hz_uw() const;

  /// Worst single-cycle leakage current (nA).
  double peak_leakage_na() const { return peak_leakage_na_; }

  /// Dynamic power per Hz in uW/Hz (multiply by f for absolute power).
  double dynamic_per_hz_uw() const;

  /// Mean leakage current over observed cycles (nA).
  double mean_leakage_na() const;

  /// Static power in uW: VDD * mean leakage current.
  double static_uw() const;

  std::size_t cycles_observed() const { return leakage_samples_; }

 private:
  const Netlist* nl_;
  const LeakageModel* leakage_;
  PowerConfig config_;
  ToggleAccumulator toggles_;
  double leakage_sum_na_ = 0.0;
  std::size_t leakage_samples_ = 0;
  double peak_cap_ff_ = 0.0;
  double peak_leakage_na_ = 0.0;
  double last_total_ = 0.0;  ///< toggle total at the previous observation
};

/// Pure chain-register model of the multi-chain shift protocol: starting
/// from `initial`, shifts `ppi` (cell-indexed, remapped through `order`)
/// into `num_chains` parallel chains for ceil(L/num_chains) cycles and
/// returns the final position-indexed chain state. The shift loop below
/// and the packed evaluator's closed-form chain bits follow exactly this
/// sequence.
std::vector<Logic> simulate_chain_loading(const ScanChainOrder& order,
                                          std::span<const Logic> ppi,
                                          int num_chains,
                                          Logic initial = Logic::Zero);

/// Called with the cycle index and the settled value vector of every
/// observed cycle (waveform dumps, custom metrics).
using CycleObserver =
    std::function<void(std::size_t cycle, std::span<const Logic> values)>;

/// The scalar shift-cycle loop: same constructor and evaluate() contract
/// as ScanPowerEvaluator, plus an optional per-cycle observer.
class ScanPowerOracle {
 public:
  ScanPowerOracle(const Netlist& nl, const LeakageModel& leakage,
                  const CapacitanceModel& caps, PowerConfig config = {});

  ScanPowerResult evaluate(const TestSet& tests,
                           std::span<const Logic> pi_control = {},
                           std::span<const Logic> mux_control = {},
                           const ScanSimOptions& opts = {},
                           const CycleObserver& observer = {});

 private:
  const Netlist* nl_;
  const LeakageModel* leakage_;
  const CapacitanceModel* caps_;
  PowerConfig config_;
};

/// True when every field of `a` and `b` has the same bytes.
bool bit_identical(const ScanPowerResult& a, const ScanPowerResult& b);

}  // namespace scanpower::oracle
