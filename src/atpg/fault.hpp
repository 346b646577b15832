#pragma once
// Single stuck-at fault model over the full-scan combinational core.
//
// Fault sites: every gate output net and every gate input pin of
// combinational gates, plus primary-input nets and DFF-output
// (pseudo-input) nets. In full scan the DFF boundary is directly
// controllable/observable, so test generation is purely combinational:
// controllable points are PIs + DFF outputs, observable points are POs +
// DFF D pins.

#include <optional>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace scanpower {

struct Fault {
  GateId gate = kInvalidGate;  ///< site gate
  int pin = -1;                ///< -1: output (stem) fault; >=0: input pin
  bool stuck_at = false;       ///< stuck-at value

  bool operator==(const Fault&) const = default;
  std::string to_string(const Netlist& nl) const;
};

/// All stuck-at faults (both polarities at every site), uncollapsed.
std::vector<Fault> enumerate_faults(const Netlist& nl);

/// Equivalence-collapsed fault list. Rules (classic):
///  - BUF/NOT: input faults fold onto output faults.
///  - AND/NAND: input sa-0 ≡ output sa-(0^inv); OR/NOR: input sa-1 ≡
///    output sa-(1^inv).
///  - Fanout-free stems: the output fault of a gate driving exactly one
///    pin collapses onto that pin's fault when they are equivalent.
/// The representative kept is the output-side fault.
std::vector<Fault> collapse_faults(const Netlist& nl);

/// The collapsed-class representative of any enumerated fault: the member
/// of collapse_faults(nl) that is equivalent to `f` under the rules above
/// (identity for faults the collapsed list keeps). Diagnosis treats a
/// candidate and its representative as the same defect.
Fault collapse_representative(const Netlist& nl, const Fault& f);

/// The output fault that every test of `f` also detects, when `f` is an
/// input-pin fault stuck at its gate's non-controlling value (NAND input
/// sa1, NOR input sa0, ...): the gate output stuck at the opposite of its
/// controlled value. That fault dominates `f`, so if it is untestable, so
/// is `f`. nullopt for every other fault.
std::optional<Fault> dominating_output_fault(const Netlist& nl, const Fault& f);

/// Parses the Fault::to_string form: "net/sa0" for a stem fault,
/// "gate.in2/sa1" for an input-pin fault. Throws Error on unknown nets,
/// out-of-range pins or malformed specs.
Fault parse_fault(const Netlist& nl, const std::string& spec);

}  // namespace scanpower
