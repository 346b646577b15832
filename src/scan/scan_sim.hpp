#pragma once
// Test-per-scan shift-power evaluation.
//
// Protocol (full scan, one chain, no reordering -- as in the paper's
// experiments): for each test vector, L shift cycles move the stimulus in
// while the previous response moves out; one capture cycle follows. Every
// observed cycle's settled circuit state contributes to exactly the two
// Table-I quantities: dynamic power per Hz (toggled load capacitance
// between consecutive observed cycles, eq. (1)) and static power (the
// cycle's total leakage), both for the combinational logic.
//
// Scan-mode input control is expressed per method:
//  - traditional scan  : PIs hold the previous test's values; every cell's
//    Q drives the logic directly.
//  - input control [8] : PIs are driven with a blocking pattern during
//    shift; cells drive the logic directly.
//  - proposed          : PIs driven with the found pattern AND muxed cells
//    present constants to the logic during shift.
//
// Evaluation is packed: each lane of a 3-valued block sweep is one
// observed clock cycle. Every source value of a cycle has a closed form
// (the PI control value or the previous test's PI; the mux constant or
// the chain bit, which is a bit of the current test, of the previous
// test's captured response, or of the initial chain state), so cycles
// need no sequential simulation; a source loads a word of cycles at once
// (a PI or a multiplexed cell is constant over a pattern's shifts, a free
// cell reads a window of its chain's bit stream). Toggles between
// consecutive cycles are neighbour-lane masks. One kernel pass per word
// (SimKernels::power_pass) sums every gate's leakage and toggled load per
// lane, and the reduction over cycles runs in the order a cycle-by-cycle
// scalar loop would use, which makes every result field reproducible bit
// for bit.

#include <span>
#include <vector>

#include "atpg/pattern.hpp"
#include "netlist/netlist.hpp"
#include "power/leakage_model.hpp"
#include "scan/add_mux.hpp"
#include "scan/reorder.hpp"
#include "sim/logic.hpp"
#include "timing/delay_model.hpp"

namespace scanpower {

struct PowerConfig {
  double vdd = 0.9;  ///< supply voltage (paper: 45 nm at 0.9 V)
};

struct ScanPowerResult {
  double dynamic_per_hz_uw = 0.0;  ///< multiply by f for absolute power
  double static_uw = 0.0;
  double mean_toggled_cap_ff = 0.0;
  double mean_leakage_na = 0.0;
  double peak_dynamic_per_hz_uw = 0.0;  ///< worst single shift cycle
  double peak_leakage_na = 0.0;
  std::size_t cycles = 0;          ///< observed clock cycles
  std::size_t sweeps = 0;          ///< packed sweeps run (capture + cycle)
};

struct ScanSimOptions {
  /// Include the capture cycle (shift-enable low) in the power average.
  /// It is identical across methods; the paper's scan-mode framing is
  /// shift-only, so the default is off.
  bool include_capture_cycles = false;
  /// Chain state before the first pattern is shifted in.
  Logic initial_state = Logic::Zero;
  /// Optional scan-cell ordering (chain position -> dffs() index); null =
  /// netlist order, i.e. the paper's "no scan cell reordering" setup.
  const ScanChainOrder* chain_order = nullptr;
  /// Number of parallel scan chains. Cells are dealt round-robin over the
  /// (possibly reordered) position sequence; all chains shift together
  /// for ceil(L / num_chains) cycles per pattern, shorter chains padded
  /// with leading zero bits. 1 = the paper's single-chain setup.
  int num_chains = 1;
};

class ScanPowerEvaluator {
 public:
  /// Block width of every packed sweep: 64 * kBlockWords observed cycles
  /// (or captured patterns) per sweep.
  static constexpr int kBlockWords = 4;

  ScanPowerEvaluator(const Netlist& nl, const LeakageModel& leakage,
                     const CapacitanceModel& caps, PowerConfig config = {});

  /// Runs the whole test session.
  /// `pi_control`: per-PI value driven during shift; X = hold the
  ///   previously applied test's PI value (traditional-scan behaviour).
  /// `mux_control`: per-DFF constant presented during shift; X = the cell
  ///   is not multiplexed (its chain bit drives the logic).
  /// Sizes must match inputs()/dffs(); pass empty spans for all-X.
  ScanPowerResult evaluate(const TestSet& tests,
                           std::span<const Logic> pi_control = {},
                           std::span<const Logic> mux_control = {},
                           const ScanSimOptions& opts = {});

 private:
  const Netlist* nl_;
  PowerConfig config_;
  GateLeakageTables tables_;
  std::vector<double> loads_;  ///< per-gate toggle weight (fF)
  std::vector<std::uint32_t> fanins4_;  ///< PowerPassArgs::fanins4
};

}  // namespace scanpower
