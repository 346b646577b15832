#pragma once
// Benchmark circuits.
//
// The paper evaluates on ISCAS89 netlists. The genuine s27 is embedded
// for tests; the Table-I circuits (s344..s9234) are *synthesized* by a
// seeded generator that reproduces each circuit's published profile
// (PI/PO/FF/gate counts) with realistic fanout distribution and logic
// depth. This substitution is recorded in DESIGN.md: all algorithms
// consume only the gate-level graph, so matching the structural profile
// preserves the experiment's shape. The synthetic circuits are far more
// redundant than ISCAS89 (14-73% of collapsed faults proven untestable
// up to s1494, see DESIGN.md). Synthetic circuits carry a "*" wherever
// experiment tables print their names.

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace scanpower {

/// The genuine ISCAS89 s27 benchmark (4 PI, 1 PO, 3 FF, 10 gates).
Netlist make_s27();

/// Raw .bench text of s27 (for parser tests).
const char* s27_bench_text();

struct SynthProfile {
  std::string name;   ///< e.g. "s344"
  int num_pi = 4;
  int num_po = 4;
  int num_ff = 4;
  int num_gates = 100;  ///< combinational gates (inverters included)
  std::uint64_t seed = 1;
  /// Target logic depth (levels). Matches the published circuit's depth;
  /// a realistic depth limits redundancy (very deep random logic over few
  /// sources is mostly redundant) but does not remove it -- see DESIGN.md.
  int max_depth = 20;
};

/// Generates a random sequential circuit matching the profile. Output is
/// deterministic in the seed. The circuit is guaranteed acyclic in its
/// combinational part, fully driven, and free of dangling logic (every
/// gate reaches a PO or a flip-flop).
Netlist generate_synthetic(const SynthProfile& profile);

/// Published profiles for the 12 Table-I ISCAS89 circuits, with fixed
/// seeds.
const std::vector<SynthProfile>& iscas89_profiles();

/// Looks up `name` ("s344", ...) in iscas89_profiles() and generates it.
/// Throws Error for unknown names.
Netlist make_iscas89_like(const std::string& name);

/// Convenience: "s27" returns the genuine netlist, anything else goes
/// through make_iscas89_like().
Netlist make_circuit(const std::string& name);

}  // namespace scanpower
