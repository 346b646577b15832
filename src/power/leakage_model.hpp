#pragma once
// Per-cell, per-input-state leakage model (45 nm, 0.9 V).
//
// The paper characterizes every library cell with HSPICE/BSIM4 and stores
// the results "in several tables containing the leakage of each gate for a
// given input pattern". We reproduce that flow with an analytic
// transistor-stack model (subthreshold + gate tunneling components,
// following eqs. (2) and (4) of the paper in spirit) whose atomic
// parameters are *calibrated so the NAND2 table reproduces the paper's
// Figure 2 exactly*:
//
//        A B   leakage (nA)
//        0 0   78
//        0 1   73
//        1 0   264
//        1 1   408
//
// Pin order convention: pin 0 is the transistor position whose single-off
// state suppresses the series stack most (the "A" input of Figure 2).
// This asymmetry is what makes pin reordering (Section 4 of the paper)
// profitable: NAND2 "01" leaks 73 nA while "10" leaks 264 nA.
//
// Supported library: INV, NAND2-4, NOR2-4 (the paper's mapping library),
// plus BUF/AND/OR/XOR/XNOR/MUX composites for convenience when estimating
// unmapped netlists. Input/DFF/Const cells are reported as zero: the paper
// measures the *combinational part* only.

#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/logic.hpp"

namespace scanpower {

/// Atomic device-leakage parameters (nA). Defaults reproduce Figure 2.
struct LeakageParams {
  // Subthreshold, NMOS series stack (NAND pull-down):
  double nmos_off_strong = 30.0;   ///< single off device at pin 0
  double nmos_off_weak = 221.0;    ///< single off device at last pin
  double nmos_stack_beta = 28.0 / 30.0;  ///< extra-off multiplicative factor
  // Subthreshold, PMOS:
  double pmos_off_parallel = 186.0;  ///< one off PMOS of a parallel bank
  double pmos_off_strong = 21.0;     ///< single off device at pin 0 (NOR stack)
  double pmos_off_weak = 155.0;      ///< single off device at last pin
  double pmos_stack_beta = 0.90;
  double nmos_off_parallel = 240.0;  ///< one off NMOS of a parallel bank (NOR)
  // Gate tunneling through ON devices:
  double gate_leak_pmos_on = 25.0;
  double gate_leak_nmos_on = 18.0;
};

class LeakageModel {
 public:
  explicit LeakageModel(LeakageParams params = {});

  const LeakageParams& params() const { return params_; }

  /// Leakage (nA) of one cell in a fully specified input state.
  /// `pattern` bit i (LSB = pin 0) is the value of pin i.
  double cell_leakage_na(GateType type, int width, unsigned pattern) const;

  /// Expected leakage (nA) with X inputs averaged uniformly over {0,1}.
  double cell_expected_leakage_na(GateType type, std::span<const Logic> ins) const;

  /// Total combinational leakage (nA) for a full value assignment
  /// (indexed by GateId, as produced by Simulator::values()).
  double circuit_leakage_na(const Netlist& nl, std::span<const Logic> values) const;

  /// Static power in uW at the given supply: sum(I_leak) * VDD.
  double circuit_leakage_power_uw(const Netlist& nl,
                                  std::span<const Logic> values,
                                  double vdd = 0.9) const;

  /// Best (minimum-leakage) input pattern of a cell and its value, over
  /// fully specified patterns. Used by tests and the pin-reorder sanity
  /// checks.
  std::pair<unsigned, double> min_leakage_pattern(GateType type, int width) const;

  static constexpr int kMaxWidth = 4;

 private:
  double nand_leakage(int width, unsigned pattern) const;
  double nor_leakage(int width, unsigned pattern) const;
  double inv_leakage(unsigned pattern) const;
  double composite_leakage(GateType type, int width, unsigned pattern) const;

  LeakageParams params_;
  // tables_[type][width] -> vector of 2^width entries (nA). Composite and
  // unsupported widths computed on demand.
  std::vector<std::vector<std::vector<double>>> tables_;
};

/// Per-netlist state->leakage tables, precomputed once per (netlist,
/// model) pair for the packed leakage engine: every leaking gate gets a
/// 2^fanin table indexed by its fully specified input state (bit i = pin
/// i), plus an expected-leakage table indexed by (state, xmask) pairs for
/// 3-valued evaluation (entries average cell_leakage_na uniformly over
/// the X positions, with exactly the arithmetic of
/// cell_expected_leakage_na, so packed and scalar evaluation agree
/// bit-for-bit). Tables are deduplicated by (type, width), so the
/// footprint is per-library-shape, not per-gate. Tables of at most
/// kPaddedEntries entries are zero-padded to that size, so the vector
/// kernels can hold any of them in registers with unconditional loads.
/// Instances are immutable after construction and safe to share across
/// worker threads.
class GateLeakageTables {
 public:
  /// Widest gate tabulated (2^w doubles per distinct shape); wider gates
  /// fall back to analytic per-lane evaluation.
  static constexpr int kMaxTableWidth = 12;
  /// Widest gate with a precomputed (state, xmask) expected table
  /// (4^w doubles per distinct shape).
  static constexpr int kMaxXTableWidth = 6;
  /// Readable entries of every table with at most this many states: the
  /// state tables of gates up to 4 wide, the expected tables up to 2.
  static constexpr int kPaddedEntries = 16;

  GateLeakageTables(const Netlist& nl, const LeakageModel& model);

  const LeakageModel& model() const { return *model_; }

  int width(GateId id) const { return width_[id]; }
  /// True for gates that never leak (sources, constants).
  bool leakless(GateId id) const { return leakless_[id] != 0; }

  /// 2^width state table of gate id, or nullptr when the gate is leakless
  /// or wider than kMaxTableWidth.
  const double* table(GateId id) const {
    return offset_[id] == kNone ? nullptr : storage_.data() + offset_[id];
  }
  /// Expected-leakage table indexed by `state | (xmask << width)` with
  /// state & xmask == 0, or nullptr (leakless / wider than
  /// kMaxXTableWidth).
  const double* xtable(GateId id) const {
    return xoffset_[id] == kNone ? nullptr : xstorage_.data() + xoffset_[id];
  }

  /// Flat views for the packed kernels (PowerPassArgs): per-gate widths
  /// (0 = leakless), per-gate state-table offsets into table_storage()
  /// (valid for leaking gates up to kMaxTableWidth wide).
  const std::uint8_t* widths() const { return width_.data(); }
  const std::uint32_t* table_offsets() const { return offset_.data(); }
  const double* table_storage() const { return storage_.data(); }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  const LeakageModel* model_;
  std::vector<std::uint8_t> width_;
  std::vector<std::uint8_t> leakless_;
  std::vector<std::uint32_t> offset_;   ///< per gate, into storage_
  std::vector<std::uint32_t> xoffset_;  ///< per gate, into xstorage_
  std::vector<double> storage_;
  std::vector<double> xstorage_;
};

}  // namespace scanpower
