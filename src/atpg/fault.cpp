#include "atpg/fault.hpp"

#include <cctype>
#include <cstdlib>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace scanpower {

std::string Fault::to_string(const Netlist& nl) const {
  if (pin < 0) {
    return strprintf("%s/sa%d", nl.gate_name(gate).c_str(), stuck_at ? 1 : 0);
  }
  return strprintf("%s.in%d/sa%d", nl.gate_name(gate).c_str(), pin,
                   stuck_at ? 1 : 0);
}

namespace {

/// Is this gate a fault site in the full-scan combinational view?
bool is_fault_site(const Netlist& nl, GateId id) {
  const GateType t = nl.type(id);
  if (t == GateType::Const0 || t == GateType::Const1) return false;
  if (t == GateType::Dff) return true;  // Q net = pseudo-input stem
  return true;                          // PIs and combinational gates
}

/// Do input faults on this pin have an input-pin identity distinct from
/// the stem? (Only fanout branches create distinct faults; with BENCH
/// one-net-per-gate semantics, a pin fault is distinct from the driver's
/// stem fault iff the driver reaches anything besides this pin: another
/// fanout branch, or direct observation as a primary output. A PO-marked
/// driver makes its stem fault detectable at the PO itself, which the
/// branch fault is not -- they are *not* equivalent.)
bool pin_fault_distinct(const Netlist& nl, GateId gate, int pin) {
  const GateId driver = nl.fanins(gate)[static_cast<std::size_t>(pin)];
  return nl.fanouts(driver).size() > 1 || nl.is_output(driver);
}

}  // namespace

std::vector<Fault> enumerate_faults(const Netlist& nl) {
  std::vector<Fault> faults;
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    if (!is_fault_site(nl, id)) continue;
    faults.push_back({id, -1, false});
    faults.push_back({id, -1, true});
    if (!is_combinational(nl.type(id)) && nl.type(id) != GateType::Dff) continue;
    for (int pin = 0; pin < static_cast<int>(nl.fanins(id).size()); ++pin) {
      faults.push_back({id, pin, false});
      faults.push_back({id, pin, true});
    }
  }
  return faults;
}

Fault collapse_representative(const Netlist& nl, const Fault& f) {
  if (f.pin < 0) return f;  // stems are always kept
  const GateType t = nl.type(f.gate);
  const auto pin = static_cast<std::size_t>(f.pin);
  if (t == GateType::Dff) {
    if (pin_fault_distinct(nl, f.gate, f.pin)) return f;
    return {nl.fanins(f.gate)[pin], -1, f.stuck_at};
  }
  if (t == GateType::Buf) return {f.gate, -1, f.stuck_at};
  if (t == GateType::Not) return {f.gate, -1, !f.stuck_at};
  const auto cv = controlling_value(t);
  if (cv && f.stuck_at == *cv) return {f.gate, -1, *controlled_output(t)};
  if (!pin_fault_distinct(nl, f.gate, f.pin)) {
    return {nl.fanins(f.gate)[pin], -1, f.stuck_at};
  }
  return f;
}

std::optional<Fault> dominating_output_fault(const Netlist& nl,
                                             const Fault& f) {
  if (f.pin < 0) return std::nullopt;
  const GateType t = nl.type(f.gate);
  const auto cv = controlling_value(t);
  if (!cv || f.stuck_at == *cv) return std::nullopt;
  // A test drives the faulted input to the controlling value and the
  // others to non-controlling ones: the good output is the controlled
  // value, the faulty one its opposite, exactly as under the output fault.
  return Fault{f.gate, -1, !*controlled_output(t)};
}

Fault parse_fault(const Netlist& nl, const std::string& spec) {
  const std::size_t slash = spec.rfind('/');
  SP_CHECK(slash != std::string::npos && slash + 4 == spec.size() &&
               spec.compare(slash + 1, 2, "sa") == 0 &&
               (spec[slash + 3] == '0' || spec[slash + 3] == '1'),
           "parse_fault: expected \"net/sa0\" or \"gate.inN/sa1\", got \"" +
               spec + "\"");
  Fault f;
  f.stuck_at = spec[slash + 3] == '1';
  std::string site = spec.substr(0, slash);
  const std::size_t dot = site.rfind(".in");
  if (dot != std::string::npos && dot + 3 < site.size()) {
    // Only treat the suffix as a pin selector when it is all digits --
    // net names themselves may contain dots.
    bool digits = true;
    for (std::size_t i = dot + 3; i < site.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(site[i]))) digits = false;
    }
    if (digits && nl.find(site) == kInvalidGate) {
      f.pin = std::atoi(site.c_str() + dot + 3);
      site = site.substr(0, dot);
    }
  }
  f.gate = nl.find(site);
  SP_CHECK(f.gate != kInvalidGate, "parse_fault: unknown net \"" + site + "\"");
  if (f.pin >= 0) {
    SP_CHECK(static_cast<std::size_t>(f.pin) < nl.fanins(f.gate).size(),
             "parse_fault: pin out of range in \"" + spec + "\"");
  }
  return f;
}

std::vector<Fault> collapse_faults(const Netlist& nl) {
  // Keep: both polarities on every stem; input-pin faults only where they
  // are neither equivalent to the gate's output fault nor a non-branching
  // copy of the driver's stem fault.
  std::vector<Fault> faults;
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    if (!is_fault_site(nl, id)) continue;
    faults.push_back({id, -1, false});
    faults.push_back({id, -1, true});
    const GateType t = nl.type(id);
    if (t == GateType::Dff) {
      // The D pin is an observable branch; distinct fault only when the
      // driver fans out elsewhere too.
      if (pin_fault_distinct(nl, id, 0)) {
        faults.push_back({id, 0, false});
        faults.push_back({id, 0, true});
      }
      continue;
    }
    if (!is_combinational(t)) continue;

    const auto cv = controlling_value(t);
    for (int pin = 0; pin < static_cast<int>(nl.fanins(id).size()); ++pin) {
      for (bool sa : {false, true}) {
        // BUF/NOT: input faults are equivalent to output faults.
        if (t == GateType::Buf || t == GateType::Not) continue;
        // Controlling-value input faults are equivalent to an output fault.
        if (cv && sa == *cv) continue;
        // Non-branching pins mirror the driver stem fault exactly.
        if (!pin_fault_distinct(nl, id, pin)) continue;
        faults.push_back({id, pin, sa});
      }
    }
  }
  return faults;
}

}  // namespace scanpower
