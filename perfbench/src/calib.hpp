#pragma once
// Host-speed reference: a fixed burst of work that is the benchmark's own
// code, never the library's, so no change to the library moves it.
//
// On a shared host the speed of a vCPU drifts by 10-20% over minutes (a
// neighbour on the sibling hyperthread, frequency), and CPU time drifts
// with it. Bursts of this kernel, interleaved with the measured work over
// the whole run, measure the speed of that stretch of time; run.py scales
// the run's CPU times by (reference burst time / median burst time) to
// report them at one fixed host speed. The kernel is a bit-parallel
// simulation of a random two-input netlist with data-dependent branches,
// the same kind of work (table lookups, dependent loads, branchy integer
// code) as the simulators and the test generator it stands beside.

#include <time.h>

#include <cstdint>
#include <vector>

namespace perfbench {

inline double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

class SpeedReference {
 public:
  SpeedReference() : fanin_(2 * kNodes), type_(kNodes), value_(kNodes) {
    std::uint64_t s = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::uint32_t lim = n < kInputs ? 1 : n;
      fanin_[2 * n] = static_cast<std::uint32_t>((s >> 20) % lim);
      fanin_[2 * n + 1] = static_cast<std::uint32_t>((s >> 40) % lim);
      type_[n] = static_cast<std::uint8_t>((s >> 60) & 3);
    }
  }

  /// Runs one burst and returns its thread CPU time in ms.
  double burst() {
    const double t0 = thread_cpu_ms();
    std::uint64_t in = seed_;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (std::uint32_t n = 0; n < kInputs; ++n) {
        in ^= in << 13;
        in ^= in >> 7;
        in ^= in << 17;
        value_[n] = in;
      }
      for (std::uint32_t n = kInputs; n < kNodes; ++n) {
        const std::uint64_t a = value_[fanin_[2 * n]];
        const std::uint64_t b = value_[fanin_[2 * n + 1]];
        std::uint64_t v;
        switch (type_[n] ^ static_cast<std::uint8_t>(a & 1)) {
          case 0: v = ~(a & b); break;
          case 1: v = ~(a | b); break;
          case 2: v = a ^ b; break;
          default: v = ~a; break;
        }
        value_[n] = v;
      }
      seed_ += value_[kNodes - 1] | 1;
    }
    return thread_cpu_ms() - t0;
  }

 private:
  static constexpr std::uint32_t kNodes = 16384;  // ~200 KB: L2-resident
  static constexpr std::uint32_t kInputs = 256;
  static constexpr int kPasses = 40;

  std::vector<std::uint32_t> fanin_;
  std::vector<std::uint8_t> type_;
  std::vector<std::uint64_t> value_;
  std::uint64_t seed_ = 1;
};

}  // namespace perfbench
