#pragma once
// End-to-end experiment flow: the three columns of Table I for one
// circuit.
//
//   traditional scan : no input control; PIs hold the previously applied
//                      test's values during shift.
//   input control [8]: a transition-blocking pattern on the PIs only
//                      (C-algorithm analogue: same TNS/TGS engine,
//                      undirected, no muxes, first-random don't-care
//                      fill, no pin reordering).
//   proposed         : AddMUX + observability-directed
//                      FindControlledInputPattern + min-leakage don't-care
//                      fill + pin reordering.
//
// All three share the same ATPG test set, scan protocol and power models,
// so the only differences are the paper's knobs. Option toggles expose
// each stage for the ablation benches.

#include <string>

#include "atpg/tpg.hpp"
#include "compact/compact_diag.hpp"
#include "compact/misr.hpp"
#include "compact/signature_log.hpp"
#include "core/dont_care_fill.hpp"
#include "core/find_pattern.hpp"
#include "core/pin_reorder.hpp"
#include "diag/diagnose.hpp"
#include "diag/response.hpp"
#include "netlist/netlist.hpp"
#include "netlist/stats.hpp"
#include "power/observability.hpp"
#include "scan/scan_sim.hpp"
#include "timing/delay_model.hpp"

namespace scanpower {

struct FlowOptions {
  TpgOptions tpg;
  DiagnosisOptions diag;  ///< used by the diagnosis flow entry points
  MisrConfig misr;        ///< response-compaction config (compacted diagnosis)
  ObservabilityOptions observability;
  MuxPlanOptions mux;
  FillOptions fill;
  int justify_backtrack_limit = 500;
  ScanSimOptions scan;
  PowerConfig power;
  DelayModel delay;
  LeakageParams leakage_params;
  /// Cap on the number of patterns *power-simulated* (0 = all). The
  /// dynamic/static figures are per-cycle averages, so a few hundred
  /// patterns estimate them tightly; large circuits use this to keep
  /// Table-I runs laptop-sized. Test generation itself is never capped.
  std::size_t max_power_patterns = 0;

  // Ablation toggles (all on = the paper's method).
  bool use_observability_directive = true;
  bool do_min_leakage_fill = true;
  bool do_pin_reorder = true;
  bool insert_muxes = true;
};

struct FlowResult {
  std::string circuit;
  NetlistStats stats;

  std::size_t num_patterns = 0;
  double fault_coverage = 0.0;

  MuxPlan mux_plan;
  FindPatternResult pattern;    ///< proposed method's pattern search
  FillResult fill;
  ReorderResult reorder;

  ScanPowerResult traditional;
  ScanPowerResult input_control;
  ScanPowerResult proposed;

  // Improvement percentages, as printed in Table I.
  double dyn_vs_traditional_pct = 0.0;
  double stat_vs_traditional_pct = 0.0;
  double dyn_vs_input_control_pct = 0.0;
  double stat_vs_input_control_pct = 0.0;
};

/// Percentage improvement of `ours` over `base` (positive = better).
inline double improvement_pct(double base, double ours) {
  return base == 0.0 ? 0.0 : 100.0 * (base - ours) / base;
}

}  // namespace scanpower
