#pragma once
// Minimal VCD (value change dump) writer for waveform inspection of scan
// episodes in GTKWave-class viewers.
//
// Usage:
//   VcdWriter vcd(out, nl, "scan_session");
//   for each cycle: vcd.sample(t, values);
//   vcd.finish();
//
// Signals are 1-bit scalars named after their nets; X maps to VCD 'x'.
// Any per-cycle stream of settled value vectors (a scalar Simulator loop,
// one cycle per call) plugs straight into sample().

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/logic.hpp"

namespace scanpower {

class VcdWriter {
 public:
  /// Writes the VCD header immediately. `signals` restricts the dump
  /// (empty = every gate).
  VcdWriter(std::ostream& out, const Netlist& nl, const std::string& top,
            std::vector<GateId> signals = {});

  /// Emits value changes at `time` (arbitrary integer timescale units).
  /// Only changed signals are written (first call dumps everything).
  void sample(std::uint64_t time, std::span<const Logic> values);

  /// Closes the final timestep. Called by the destructor if omitted.
  void finish();
  ~VcdWriter();

  std::size_t changes_written() const { return changes_; }

 private:
  std::ostream* out_;
  std::vector<GateId> signals_;
  std::vector<std::string> codes_;  ///< VCD id code per signal
  std::vector<Logic> last_;
  bool first_ = true;
  bool finished_ = false;
  std::size_t changes_ = 0;
};

}  // namespace scanpower
