#pragma once
// Time compaction of scan responses into MISR signatures.
//
// A tester rarely observes every (pattern, observation point) response
// bit the way ResponseMatrix assumes: responses are fed through a
// multiple-input signature register (MISR) -- an LFSR that XORs `width`
// response bits into its state per cycle -- and only the accumulated
// signature is compared, once per window of patterns. This header holds
// the compaction core:
//
//  - Misr: the scalar register (programmable polynomial, width 4..64) and
//    the canonical compaction recipe. Per pattern the observation points
//    are fed in ceil(num_points / width) chunks of `width` bits; patterns
//    of a window chain through the register; every window starts from the
//    all-zero state.
//  - MisrCompactor: the packed engine. Per-pattern partial signatures are
//    computed bit-sliced over the response words (the register state is
//    held as `width` blocks of W pattern words, so one LFSR step is a
//    word-array rotate plus tap XORs over 64*W lanes at once -- the same
//    word layout as BlockSimulator), then window signatures are folded
//    per pattern using the linearity of the register:
//        state_after(s, r) = idle^C(s) ^ sig_from_zero(r).
//    Results are bit-identical to Misr::compact_scalar for every block
//    width.
//
// Everything here is linear over GF(2): sig(A ^ B) == sig(A) ^ sig(B)
// for response matrices A, B (windows start from state 0). So a window's
// signature is the XOR of what each of its set response bits adds on its
// own, and that depends only on the bit's point and on how many patterns
// of the window follow it. Misr::bit_signatures tabulates exactly that,
// which lets diagnosis predict a candidate's signature diff from the set
// bits of its response diff alone, without compacting a diff matrix.

#include <cstdint>
#include <span>
#include <vector>

#include "diag/response.hpp"

namespace scanpower {

class XMaskPlan;

/// Compaction knobs. The polynomial is in Galois right-shift form: one
/// step is `fb = s & 1; s >>= 1; if (fb) s ^= poly`. Bit width-1 of the
/// polynomial must be set (the default ones are), which makes the
/// transition invertible -- a single corrupted response bit can never
/// alias to the fault-free signature.
struct MisrConfig {
  int width = 32;           ///< register width in bits (4..64)
  std::uint64_t poly = 0;   ///< feedback taps; 0 = default_misr_poly(width)
  int window = 32;          ///< patterns compacted per signature

  std::uint64_t resolved_poly() const;
  std::size_t num_windows(std::size_t num_patterns) const {
    return (num_patterns + static_cast<std::size_t>(window) - 1) /
           static_cast<std::size_t>(window);
  }
  friend bool operator==(const MisrConfig& a, const MisrConfig& b) {
    return a.width == b.width && a.window == b.window &&
           a.resolved_poly() == b.resolved_poly();
  }
};

/// Known-good feedback polynomial for a register width (reflected CRC
/// constants for the common widths, truncations of them otherwise; all
/// have the required top bit set).
std::uint64_t default_misr_poly(int width);

/// Scalar MISR: the reference implementation of the compaction recipe.
class Misr {
 public:
  explicit Misr(const MisrConfig& cfg);  ///< validates width/poly/window

  const MisrConfig& config() const { return cfg_; }
  int width() const { return cfg_.width; }
  std::uint64_t poly() const { return poly_; }
  std::uint64_t state_mask() const { return state_mask_; }

  /// Response chunks fed per pattern: ceil(num_points / width).
  std::size_t chunks_per_pattern(std::size_t num_points) const {
    return (num_points + static_cast<std::size_t>(cfg_.width) - 1) /
           static_cast<std::size_t>(cfg_.width);
  }

  /// One register step without injection.
  std::uint64_t step(std::uint64_t s) const {
    const std::uint64_t fb = s & 1;
    s >>= 1;
    return fb ? s ^ poly_ : s;
  }
  std::uint64_t idle(std::uint64_t s, std::size_t steps) const {
    for (std::size_t i = 0; i < steps; ++i) s = step(s);
    return s;
  }

  /// Per-window signatures of a response matrix, one response bit at a
  /// time (masked points -- see XMaskPlan -- contribute 0). The packed
  /// engine is cross-checked against this bit-for-bit.
  std::vector<std::uint64_t> compact_scalar(
      const ResponseMatrix& responses, const XMaskPlan* mask = nullptr) const;

  /// Per-bit window signatures: num_points rows of
  /// depth = min(window, num_patterns) words. Entry (op, j) is the
  /// signature a lone 1 at point `op` leaves in its window when `j` more
  /// patterns of that window follow it:
  ///     idle(idle(1 << op % width, C - 1 - op / width), j * C),
  /// with C = chunks_per_pattern(num_points). A window's signature is the
  /// XOR of the entries of its unmasked set bits. `num_patterns` only
  /// caps the depth, since no window is longer than the pattern set.
  std::vector<std::uint64_t> bit_signatures(std::size_t num_points,
                                            std::size_t num_patterns) const;

 private:
  MisrConfig cfg_;
  std::uint64_t poly_ = 0;
  std::uint64_t state_mask_ = 0;
};

/// Packed MISR compaction: 64 * block_words per-pattern partial
/// signatures per bit-sliced sweep. One instance is cheap and stateless
/// between calls; give each worker thread its own (compact() uses only
/// stack scratch, so sharing a const instance is also race-free).
class MisrCompactor {
 public:
  explicit MisrCompactor(const MisrConfig& cfg, int block_words = 4);

  const Misr& misr() const { return misr_; }
  int block_words() const { return words_; }
  std::size_t num_windows(std::size_t num_patterns) const {
    return misr_.config().num_windows(num_patterns);
  }

  /// Per-window signatures of `responses`; out.size() must equal
  /// num_windows(responses.num_patterns). Invalid high lanes of the final
  /// response word must be zero (every producer in this library
  /// guarantees that).
  void compact(const ResponseMatrix& responses, const XMaskPlan* mask,
               std::span<std::uint64_t> out) const;
  std::vector<std::uint64_t> compact(const ResponseMatrix& responses,
                                     const XMaskPlan* mask = nullptr) const;

 private:
  template <int W>
  void compact_impl(const ResponseMatrix& responses, const XMaskPlan* mask,
                    std::span<std::uint64_t> out) const;

  Misr misr_;
  int words_;
};

}  // namespace scanpower
