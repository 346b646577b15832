// AVX2 backend. This TU is the only place AVX2 intrinsics (or code
// compiled with -mavx2) may live; CMake gives it per-source
// COMPILE_OPTIONS and everything below sits in an anonymous namespace, so
// no AVX2 code has external linkage and the portable build path can never
// pull it in. When the compiler does not provide __AVX2__ here (SIMD off,
// non-x86 host) the TU degrades to a nullptr accessor.
//
// Kernels:
//   eval_full / eval_ternary  -- 256-bit gate kernels for W = 4/8 (one or
//       two __m256i per gate block); W = 1/2 fall back to the generic
//       bodies recompiled in this TU. Pure bitwise -> bit-identical.
//   cone_sweep                -- generic body (sparse and branchy; the
//       win is in the full evaluations), recompiled with -mavx2.
//   leak_gather               -- tables of at most 16 entries (gates up
//       to 4 inputs) resolved in registers: per-lane state bytes, then
//       vpermd + blends over the table's one to four registers; wider
//       tables use variable shifts + vpgatherqpd, 4 lanes at a time. One
//       add per lane keeps the scalar accumulation order exactly.
//   power_pass                -- the same in-register lookups for a whole
//       gate walk per 64-lane word, leakage and toggled-load sums held in
//       32 four-lane accumulators; the lookup takes one, two or four
//       table registers by gate width.
//   obs_reduce                -- vertical masked adds into one __m256d
//       whose lane l IS acc[l] of the reduction's 4-accumulator
//       definition; masked lanes add an exact +0.0, the final fold runs
//       in the defined order. Bit-identical by construction.

#include "atpg/sim_kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>

#include "atpg/packed_sim.hpp"
#include "util/assert.hpp"

namespace scanpower {
namespace {

#include "atpg/sim_kernels_impl.inc"

struct Ops256 {
  using V = __m256i;
  static constexpr int kWordsPerVec = 4;
  static V load(const PatternWord* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(PatternWord* p, V v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static V zeros() { return _mm256_setzero_si256(); }
  static V ones() { return _mm256_set1_epi64x(-1); }
  static V vand(V a, V b) { return _mm256_and_si256(a, b); }
  static V vor(V a, V b) { return _mm256_or_si256(a, b); }
  static V vxor(V a, V b) { return _mm256_xor_si256(a, b); }
  static V vnot(V a) { return _mm256_xor_si256(a, ones()); }
  static V vandnot(V a, V b) { return _mm256_andnot_si256(a, b); }
};

#include "atpg/sim_kernels_vec.inc"

void eval_full(const Netlist& nl, PatternWord* values, int words) {
  switch (words) {
    case 1: eval_full_impl<1>(nl, values); break;
    case 2: eval_full_impl<2>(nl, values); break;
    case 4: eval_full_vec<Ops256, 1>(nl, values); break;
    case 8: eval_full_vec<Ops256, 2>(nl, values); break;
    default: SP_ASSERT(false, "avx2 backend: unsupported block width");
  }
}

void eval_ternary(const Netlist& nl, PatternWord* p1, PatternWord* p0,
                  int words) {
  switch (words) {
    case 1: eval_ternary_impl<1>(nl, p1, p0); break;
    case 2: eval_ternary_impl<2>(nl, p1, p0); break;
    case 4: eval_ternary_vec<Ops256, 1>(nl, p1, p0); break;
    case 8: eval_ternary_vec<Ops256, 2>(nl, p1, p0); break;
    default: SP_ASSERT(false, "avx2 backend: unsupported block width");
  }
}

void cone_sweep(ConeSweepArgs& a, int words) {
  dispatch_block_words(
      words, [&](auto w) { cone_sweep_impl<decltype(w)::value>(a); });
}

/// 0xFF in byte i where bit i of m is set, 0 elsewhere.
__m256i expand_bits(std::uint32_t m) {
  const __m256i spread = _mm256_setr_epi8(
      0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,  //
      2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
  const __m256i bit = _mm256_set1_epi64x(0x8040201008040201LL);
  const __m256i bytes =
      _mm256_shuffle_epi8(_mm256_set1_epi32(static_cast<int>(m)), spread);
  return _mm256_cmpeq_epi8(_mm256_and_si256(bytes, bit), bit);
}

/// Doubled state bytes of lanes [32h, 32h + 32): byte i is 2 * the state
/// of lane 32h + i, bit j of the state = that lane's bit of src[j], for
/// j < k <= 4. The doubling is what lookup() indexes with.
__m256i state_bytes2(const PatternWord* src, int k, int h) {
  __m256i state = _mm256_setzero_si256();
  for (int j = 0; j < k; ++j) {
    const std::uint32_t m = static_cast<std::uint32_t>(src[j] >> (32 * h));
    state = _mm256_or_si256(
        state, _mm256_and_si256(expand_bits(m),
                                _mm256_set1_epi8(static_cast<char>(2 << j))));
  }
  return state;
}

/// Dword indices that make vpermd fetch double (u & 3) of a register, for
/// a low byte holding 2 * u: the pair (2u, 2u + 1) in every 64-bit lane.
__m256i double_index(__m256i u2) {
  return _mm256_or_si256(_mm256_shuffle_epi32(u2, 0xA0),
                         _mm256_setr_epi32(0, 1, 0, 1, 0, 1, 0, 1));
}

/// table[s] per 64-bit lane of a 4 * R-entry table held in R registers
/// (R = 1, 2 or 4), where the low byte of each lane of u2 is 2 * s
/// (higher bytes ignored).
template <int R = 4>
__m256d lookup(const __m256i table[R], __m256i u2) {
  const __m256i idx = double_index(u2);
  const auto pick = [&](int r) {
    return _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(table[r], idx));
  };
  if constexpr (R == 1) return pick(0);
  // blendv reads the sign bit: move state bits 2 and 3 there.
  const __m256d bit2 = _mm256_castsi256_pd(_mm256_slli_epi64(u2, 60));
  if constexpr (R == 2) return _mm256_blendv_pd(pick(0), pick(1), bit2);
  const __m256d bit3 = _mm256_castsi256_pd(_mm256_slli_epi64(u2, 59));
  return _mm256_blendv_pd(_mm256_blendv_pd(pick(0), pick(1), bit2),
                          _mm256_blendv_pd(pick(2), pick(3), bit2), bit3);
}

void load_table16(const double* table, __m256i out[4]) {
  for (int r = 0; r < 4; ++r) {
    out[r] = _mm256_castpd_si256(_mm256_loadu_pd(table + 4 * r));
  }
}

/// leak64[i] += table[state(i)] for k <= 4 from doubled state bytes, with
/// the table in R registers.
template <int R>
void lookup_word(const double* table, const std::uint8_t* state2,
                 double* leak64) {
  __m256i tbl[4];
  load_table16(table, tbl);
  for (int i = 0; i < 64; i += 4) {
    std::int32_t four;
    std::memcpy(&four, state2 + i, sizeof four);
    const __m256i u2 = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(four));
    _mm256_storeu_pd(leak64 + i, _mm256_add_pd(_mm256_loadu_pd(leak64 + i),
                                               lookup<R>(tbl, u2)));
  }
}

void leak_gather(const double* table, const PatternWord* src, int k,
                 double* leak64) {
  if (k <= 4) {
    alignas(32) std::uint8_t state[64];
    _mm256_store_si256(reinterpret_cast<__m256i*>(state),
                       state_bytes2(src, k, 0));
    _mm256_store_si256(reinterpret_cast<__m256i*>(state + 32),
                       state_bytes2(src, k, 1));
    if (k <= 2) {
      lookup_word<1>(table, state, leak64);
    } else if (k == 3) {
      lookup_word<2>(table, state, leak64);
    } else {
      lookup_word<4>(table, state, leak64);
    }
    return;
  }
  const __m256i lane0 = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i one = _mm256_set1_epi64x(1);
  for (int i = 0; i < 64; i += 4) {
    const __m256i lanes = _mm256_add_epi64(lane0, _mm256_set1_epi64x(i));
    __m256i idx = _mm256_setzero_si256();
    for (int j = 0; j < k; ++j) {
      __m256i bits = _mm256_srlv_epi64(
          _mm256_set1_epi64x(static_cast<long long>(src[j])), lanes);
      bits = _mm256_and_si256(bits, one);
      idx = _mm256_or_si256(idx, _mm256_slli_epi64(bits, j));
    }
    const __m256d vals = _mm256_i64gather_pd(table, idx, 8);
    _mm256_storeu_pd(leak64 + i,
                     _mm256_add_pd(_mm256_loadu_pd(leak64 + i), vals));
  }
}

// Accumulator 8h + v, element e of the power pass holds lane
// 32h + 8e + v: shifting a half-word's 32 per-lane bytes right by 8v
// within each 64-bit element moves byte 8e + v into its index bits. The
// lane order is restored once per word.
void power_pass(const PowerPassArgs& a) {
  const __m256d toggle_scale = _mm256_setr_pd(0.0, 0.5, 1.0, 0.0);
  const __m256i two = _mm256_set1_epi8(2);
  const __m256i four = _mm256_set1_epi8(4);
  // slow_leak's output, then the spilled leakage and load sums.
  alignas(32) double slow[3 * 64];
  for (int wi = 0; wi < a.words_used; ++wi) {
    __m256d leak[16];
    __m256d cap[16];
    unroll<16>([&](auto r) {
      leak[r] = _mm256_setzero_pd();
      cap[r] = _mm256_setzero_pd();
    });
    for (GateId g = 0; g < a.num_gates; ++g) {
      PatternWord full, half;
      pass_toggles(a, g, wi, full, half);
      // Doubled toggle codes: 2 = half, 4 = full. Branch-free: a gate
      // word without toggles adds +0.0 everywhere.
      __m256i code[2];
      unroll<2>([&](auto h) {
        code[h] = _mm256_or_si256(
            _mm256_and_si256(
                expand_bits(static_cast<std::uint32_t>(half >> (32 * h))),
                two),
            _mm256_and_si256(
                expand_bits(static_cast<std::uint32_t>(full >> (32 * h))),
                four));
      });
      const __m256i weight = _mm256_castpd_si256(
          _mm256_mul_pd(_mm256_set1_pd(a.loads[g]), toggle_scale));
      unroll<16>([&](auto r) {
        const __m256i idx =
            double_index(_mm256_srli_epi64(code[r / 8], 8 * (r % 8)));
        cap[r] = _mm256_add_pd(
            cap[r],
            _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(weight, idx)));
      });

      const int k = a.width[g];
      if (k == 0) continue;
      PatternWord s[4];
      if (k <= 4 && !pass_states(a, g, wi, s)) [[likely]] {
        __m256i tbl[4];
        load_table16(a.tables + a.table_offset[g], tbl);
        const __m256i state[2] = {state_bytes2(s, k, 0),
                                  state_bytes2(s, k, 1)};
        // Without byte permutes, a table costs a vpermd per register: use
        // as few registers as the width needs.
        const auto add = [&](auto regs) {
          constexpr int R = decltype(regs)::value;
          unroll<16>([&](auto r) {
            leak[r] = _mm256_add_pd(
                leak[r],
                lookup<R>(tbl, _mm256_srli_epi64(state[r / 8], 8 * (r % 8))));
          });
        };
        if (k <= 2) {
          add(std::integral_constant<int, 1>{});
        } else if (k == 3) {
          add(std::integral_constant<int, 2>{});
        } else {
          add(std::integral_constant<int, 4>{});
        }
        continue;
      }
      // The sums go through memory the callee may reach, so none is live
      // across the call.
      unroll<16>([&](auto r) {
        _mm256_store_pd(slow + 64 + 4 * r, leak[r]);
        _mm256_store_pd(slow + 128 + 4 * r, cap[r]);
      });
      a.slow_leak(a.slow_ctx, g, wi, slow);
      unroll<16>([&](auto r) {
        const int lane = 32 * (r / 8) + r % 8;
        leak[r] = _mm256_add_pd(
            _mm256_load_pd(slow + 64 + 4 * r),
            _mm256_setr_pd(slow[lane], slow[lane + 8], slow[lane + 16],
                           slow[lane + 24]));
        cap[r] = _mm256_load_pd(slow + 128 + 4 * r);
      });
    }
    alignas(32) double lt[64];
    alignas(32) double ct[64];
    unroll<16>([&](auto r) {
      _mm256_store_pd(lt + 4 * r, leak[r]);
      _mm256_store_pd(ct + 4 * r, cap[r]);
    });
    double* const out_leak = a.leak + static_cast<std::size_t>(wi) * 64;
    double* const out_cap = a.cap + static_cast<std::size_t>(wi) * 64;
    for (int r = 0; r < 16; ++r) {
      const int lane = 32 * (r / 8) + r % 8;
      for (int e = 0; e < 4; ++e) {
        out_leak[lane + 8 * e] = lt[4 * r + e];
        out_cap[lane + 8 * e] = ct[4 * r + e];
      }
    }
  }
}

void obs_reduce(const PatternWord* v, const PatternWord* valid,
                const double* leak, int words, double* s1, std::uint32_t* c1) {
  const __m256i sel0 = _mm256_setr_epi64x(1, 2, 4, 8);
  __m256d acc = _mm256_setzero_pd();
  std::uint32_t cnt = 0;
  for (int w = 0; w < words; ++w) {
    const PatternWord bits = v[w] & valid[w];
    cnt += static_cast<std::uint32_t>(std::popcount(bits));
    if (bits == 0) continue;
    const double* const lw = leak + static_cast<std::size_t>(w) * 64;
    const __m256i vbits = _mm256_set1_epi64x(static_cast<long long>(bits));
    for (int i = 0; i < 64; i += 4) {
      const __m256i sel = _mm256_slli_epi64(sel0, i);
      const __m256d mask = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(_mm256_and_si256(vbits, sel), sel));
      acc = _mm256_add_pd(acc,
                          _mm256_and_pd(_mm256_loadu_pd(lw + i), mask));
    }
  }
  double a[4];
  _mm256_storeu_pd(a, acc);
  *s1 = ((a[0] + a[1]) + a[2]) + a[3];
  *c1 = cnt;
}

const SimKernels kTable = {
    SimBackend::Avx2, &eval_full,   &eval_ternary, &cone_sweep,
    &leak_gather,     &obs_reduce,  &power_pass,
};

}  // namespace

const SimKernels* avx2_sim_kernels() { return &kTable; }

}  // namespace scanpower

#else  // !__AVX2__

namespace scanpower {
const SimKernels* avx2_sim_kernels() { return nullptr; }
}  // namespace scanpower

#endif
