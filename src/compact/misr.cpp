#include "compact/misr.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "compact/xmask.hpp"
#include "util/assert.hpp"

namespace scanpower {

std::uint64_t default_misr_poly(int width) {
  SP_CHECK(width >= 4 && width <= 64,
           "MISR width must be between 4 and 64 bits");
  // Reflected CRC constants (Galois right-shift form). Truncating keeps
  // the top bit set (both constants lead with binary 11), which is all
  // correctness needs; the canonical widths get the standard polynomials.
  switch (width) {
    case 8: return 0x8CULL;                  // CRC-8/MAXIM
    case 16: return 0xA001ULL;               // CRC-16/IBM
    case 32: return 0xEDB88320ULL;           // CRC-32
    case 64: return 0xC96C5795D7870F42ULL;   // CRC-64/XZ
    default:
      if (width < 32) return 0xEDB88320ULL >> (32 - width);
      return 0xC96C5795D7870F42ULL >> (64 - width);
  }
}

std::uint64_t MisrConfig::resolved_poly() const {
  return poly != 0 ? poly : default_misr_poly(width);
}

Misr::Misr(const MisrConfig& cfg) : cfg_(cfg) {
  SP_CHECK(cfg.width >= 4 && cfg.width <= 64,
           "MISR width must be between 4 and 64 bits");
  SP_CHECK(cfg.window >= 1, "MISR window must be at least 1 pattern");
  poly_ = cfg.resolved_poly();
  state_mask_ = cfg.width == 64 ? ~std::uint64_t{0}
                                : (std::uint64_t{1} << cfg.width) - 1;
  SP_CHECK((poly_ & ~state_mask_) == 0,
           "MISR polynomial does not fit the register width");
  SP_CHECK((poly_ >> (cfg.width - 1)) & 1,
           "MISR polynomial must have its top bit set (invertible register)");
}

std::vector<std::uint64_t> Misr::compact_scalar(const ResponseMatrix& responses,
                                                const XMaskPlan* mask) const {
  const std::size_t width = static_cast<std::size_t>(cfg_.width);
  const std::size_t window = static_cast<std::size_t>(cfg_.window);
  const std::size_t chunks = chunks_per_pattern(responses.num_points);
  std::vector<std::uint64_t> out(cfg_.num_windows(responses.num_patterns), 0);
  for (std::size_t win = 0; win < out.size(); ++win) {
    const std::size_t p0 = win * window;
    const std::size_t p1 = std::min(p0 + window, responses.num_patterns);
    std::uint64_t state = 0;
    for (std::size_t p = p0; p < p1; ++p) {
      for (std::size_t c = 0; c < chunks; ++c) {
        std::uint64_t chunk = 0;
        for (std::size_t i = 0; i < width; ++i) {
          const std::size_t op = c * width + i;
          if (op >= responses.num_points) break;
          if (mask && mask->masked(op, win)) continue;
          if (responses.bit(op, p)) chunk |= std::uint64_t{1} << i;
        }
        state = step(state) ^ chunk;
      }
    }
    out[win] = state;
  }
  return out;
}

std::vector<std::uint64_t> Misr::bit_signatures(
    std::size_t num_points, std::size_t num_patterns) const {
  const std::size_t width = static_cast<std::size_t>(cfg_.width);
  const std::size_t depth =
      std::min(static_cast<std::size_t>(cfg_.window), num_patterns);
  const std::size_t chunks = chunks_per_pattern(num_points);
  std::vector<std::uint64_t> table(num_points * depth);
  if (depth == 0) return table;
  for (std::size_t op = 0; op < num_points; ++op) {
    std::uint64_t* row = table.data() + op * depth;
    // Injected in chunk op / width, then idled through the rest of its
    // pattern; every following pattern idles it `chunks` more steps.
    row[0] = idle(std::uint64_t{1} << (op % width), chunks - 1 - op / width);
    for (std::size_t j = 1; j < depth; ++j) row[j] = idle(row[j - 1], chunks);
  }
  return table;
}

MisrCompactor::MisrCompactor(const MisrConfig& cfg, int block_words)
    : misr_(cfg), words_(block_words) {
  check_block_words("MisrCompactor", "block_words", block_words);
}

template <int W>
void MisrCompactor::compact_impl(const ResponseMatrix& responses,
                                 const XMaskPlan* mask,
                                 std::span<std::uint64_t> out) const {
  const std::size_t num_points = responses.num_points;
  const std::size_t num_patterns = responses.num_patterns;
  const std::size_t width = static_cast<std::size_t>(misr_.width());
  const std::size_t window = static_cast<std::size_t>(misr_.config().window);
  const std::size_t chunks = misr_.chunks_per_pattern(num_points);
  const std::uint64_t poly = misr_.poly();
  const std::size_t wpp = (num_patterns + 63) / 64;

  // Window fold state, carried across word blocks (a window may straddle
  // block boundaries).
  std::uint64_t fold = 0;
  std::size_t win = 0;
  std::size_t in_win = 0;

  // Bit-sliced register: state bit i of lane l lives in bit l of
  // S[i * W + l / 64]. Stack scratch; 64 * 8 words at the maxima.
  std::array<PatternWord, 64 * W> state;
  std::array<PatternWord, W> fb;

  for (std::size_t w0 = 0; w0 < wpp; w0 += W) {
    const std::size_t nw = std::min<std::size_t>(W, wpp - w0);
    state.fill(0);
    for (std::size_t c = 0; c < chunks; ++c) {
      // step: fb = bit 0; right-shift the slices; XOR fb into the taps.
      for (std::size_t w = 0; w < nw; ++w) fb[w] = state[w];
      for (std::size_t i = 0; i + 1 < width; ++i) {
        for (std::size_t w = 0; w < nw; ++w) {
          state[i * W + w] = state[(i + 1) * W + w];
        }
      }
      for (std::size_t w = 0; w < nw; ++w) state[(width - 1) * W + w] = 0;
      std::uint64_t taps = poly;
      while (taps != 0) {
        const int t = std::countr_zero(taps);
        taps &= taps - 1;
        for (std::size_t w = 0; w < nw; ++w) {
          state[static_cast<std::size_t>(t) * W + w] ^= fb[w];
        }
      }
      // inject chunk c: response words of points [c*width, ...).
      for (std::size_t i = 0; i < width; ++i) {
        const std::size_t op = c * width + i;
        if (op >= num_points) break;
        const PatternWord* row = responses.row(op) + w0;
        if (const PatternWord* keep = mask ? mask->keep_row(op) : nullptr) {
          for (std::size_t w = 0; w < nw; ++w) {
            state[i * W + w] ^= row[w] & keep[w0 + w];
          }
        } else {
          for (std::size_t w = 0; w < nw; ++w) state[i * W + w] ^= row[w];
        }
      }
    }
    // Fold this block's per-pattern partial signatures into the window
    // chain: state_after(s, r) = idle^chunks(s) ^ sig_from_zero(r).
    const std::size_t base = w0 * 64;
    const std::size_t batch = std::min<std::size_t>(nw * 64, num_patterns - base);
    for (std::size_t l = 0; l < batch; ++l) {
      std::uint64_t partial = 0;
      const std::size_t wi = l / 64;
      const int bit = static_cast<int>(l % 64);
      for (std::size_t i = 0; i < width; ++i) {
        partial |= ((state[i * W + wi] >> bit) & 1) << i;
      }
      fold = misr_.idle(fold, chunks) ^ partial;
      if (++in_win == window || base + l + 1 == num_patterns) {
        out[win++] = fold;
        fold = 0;
        in_win = 0;
      }
    }
  }
}

void MisrCompactor::compact(const ResponseMatrix& responses,
                            const XMaskPlan* mask,
                            std::span<std::uint64_t> out) const {
  SP_CHECK(out.size() == num_windows(responses.num_patterns),
           "MisrCompactor: output span does not match the window count");
  SP_CHECK(responses.words.size() >=
               responses.num_points * responses.words_per_point(),
           "MisrCompactor: response rows too short");
  if (mask && !mask->any_masked()) mask = nullptr;  // empty plan: no masking
  if (mask) {
    SP_CHECK(mask->num_points() == responses.num_points &&
                 mask->num_windows() == out.size(),
             "MisrCompactor: X-mask plan shape mismatch");
  }
  dispatch_block_words(words_, [&](auto w) {
    compact_impl<decltype(w)::value>(responses, mask, out);
  });
}

std::vector<std::uint64_t> MisrCompactor::compact(
    const ResponseMatrix& responses, const XMaskPlan* mask) const {
  std::vector<std::uint64_t> out(num_windows(responses.num_patterns));
  compact(responses, mask, out);
  return out;
}

}  // namespace scanpower
