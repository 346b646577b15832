// AVX-512 backend (needs F/BW/DQ/VL, i.e. the Skylake-X family subset).
// Same isolation rules as the AVX2 TU: everything is anonymous-namespace,
// per-source COMPILE_OPTIONS, nullptr accessor when not compiled in.
//
// W = 8 runs one 512-bit vector per gate block; W = 4 uses 256-bit ops
// (VL); W = 1/2 use the generic bodies. Leakage tables of at most 16
// entries (every gate up to 4 inputs) are resolved in registers: the 64
// lanes' states are built as bytes with masked byte adds, and vpermt2pd
// looks 8 lanes up in the table's two registers; wider tables are
// gathered, 8 lanes per vpgatherqpd. power_pass keeps a word's 64 leakage
// and 64 toggled-load sums in 16 registers for its whole gate walk.
// obs_reduce keeps the 4-accumulator *definition* of the reduction -- a
// 512-bit 8-lane accumulator would change the addition interleave and
// break bit-identity -- so it runs the same 256-bit masked-add kernel as
// AVX2 (with AVX-512 maskz loads).

#include "atpg/sim_kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include <bit>
#include <cstddef>
#include <cstdint>
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

struct Ops512 {
  using V = __m512i;
  static constexpr int kWordsPerVec = 8;
  // gcc 12 builds the unmasked forms of some intrinsics on
  // _mm512_undefined_*() and warns that it is read; zero-masking with
  // every lane selected gives the same result without it.
  static constexpr __mmask8 kAllLanes = 0xFF;
  static V load(const PatternWord* p) { return _mm512_loadu_si512(p); }
  static void store(PatternWord* p, V v) { _mm512_storeu_si512(p, v); }
  static V zeros() { return _mm512_setzero_si512(); }
  static V ones() { return _mm512_set1_epi64(-1); }
  static V vand(V a, V b) { return _mm512_and_si512(a, b); }
  static V vor(V a, V b) { return _mm512_or_si512(a, b); }
  static V vxor(V a, V b) { return _mm512_xor_si512(a, b); }
  static V vnot(V a) { return _mm512_xor_si512(a, ones()); }
  static V vandnot(V a, V b) {
    return _mm512_maskz_andnot_epi64(kAllLanes, a, b);
  }
};

#include "atpg/sim_kernels_vec.inc"

void eval_full(const Netlist& nl, PatternWord* values, int words) {
  switch (words) {
    case 1: eval_full_impl<1>(nl, values); break;
    case 2: eval_full_impl<2>(nl, values); break;
    case 4: eval_full_vec<Ops256, 1>(nl, values); break;
    case 8: eval_full_vec<Ops512, 1>(nl, values); break;
    default: SP_ASSERT(false, "avx512 backend: unsupported block width");
  }
}

void eval_ternary(const Netlist& nl, PatternWord* p1, PatternWord* p0,
                  int words) {
  switch (words) {
    case 1: eval_ternary_impl<1>(nl, p1, p0); break;
    case 2: eval_ternary_impl<2>(nl, p1, p0); break;
    case 4: eval_ternary_vec<Ops256, 1>(nl, p1, p0); break;
    case 8: eval_ternary_vec<Ops512, 1>(nl, p1, p0); break;
    default: SP_ASSERT(false, "avx512 backend: unsupported block width");
  }
}

void cone_sweep(ConeSweepArgs& a, int words) {
  dispatch_block_words(
      words, [&](auto w) { cone_sweep_impl<decltype(w)::value>(a); });
}

/// Byte vectors of 1 << j, j = 0..3.
struct BitBytes {
  __m512i bit[4] = {_mm512_set1_epi8(1), _mm512_set1_epi8(2),
                    _mm512_set1_epi8(4), _mm512_set1_epi8(8)};
};

/// State bytes of one 64-lane word: byte i is the state of lane i,
/// bit j = bit i of src[j], for j < k <= 4.
__m512i state_bytes(const PatternWord* src, int k, const BitBytes& b) {
  __m512i state = _mm512_maskz_mov_epi8(_cvtu64_mask64(src[0]), b.bit[0]);
  for (int j = 1; j < k; ++j) {
    state = _mm512_mask_add_epi8(state, _cvtu64_mask64(src[j]), state,
                                 b.bit[j]);
  }
  return state;
}

void leak_gather(const double* table, const PatternWord* src, int k,
                 double* leak64) {
  if (k <= 4) {
    // The 16-entry table sits in two registers; vpermt2pd reads index
    // bits [3:0] of each 64-bit lane, the zero-extended state byte.
    const __m512d lo = _mm512_loadu_pd(table);
    const __m512d hi = _mm512_loadu_pd(table + 8);
    alignas(64) std::uint8_t state[64];
    _mm512_store_si512(state, state_bytes(src, k, BitBytes{}));
    for (int i = 0; i < 64; i += 8) {
      const __m512i idx = _mm512_maskz_cvtepu8_epi64(
          Ops512::kAllLanes,
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(state + i)));
      const __m512d vals = _mm512_permutex2var_pd(lo, idx, hi);
      _mm512_storeu_pd(leak64 + i,
                       _mm512_add_pd(_mm512_loadu_pd(leak64 + i), vals));
    }
    return;
  }
  const __m512i lane0 = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  const __m512i one = _mm512_set1_epi64(1);
  for (int i = 0; i < 64; i += 8) {
    const __m512i lanes = _mm512_add_epi64(lane0, _mm512_set1_epi64(i));
    __m512i idx = _mm512_setzero_si512();
    for (int j = 0; j < k; ++j) {
      __m512i bits = _mm512_maskz_srlv_epi64(
          Ops512::kAllLanes,
          _mm512_set1_epi64(static_cast<long long>(src[j])), lanes);
      bits = _mm512_and_si512(bits, one);
      idx = _mm512_or_si512(
          idx, _mm512_maskz_slli_epi64(Ops512::kAllLanes, bits,
                                       static_cast<unsigned>(j)));
    }
    const __m512d vals = _mm512_mask_i64gather_pd(
        _mm512_setzero_pd(), Ops512::kAllLanes, idx, table, 8);
    _mm512_storeu_pd(leak64 + i,
                     _mm512_add_pd(_mm512_loadu_pd(leak64 + i), vals));
  }
}

// Register v, element e of the power pass holds lane 8e + v: shifting a
// word's 64 per-lane bytes right by 8v within each 64-bit element moves
// byte 8e + v into the index bits of element e, so no byte is ever
// widened or gathered. The lane order is restored once per word.
void power_pass(const PowerPassArgs& a) {
  constexpr __mmask8 kAll = Ops512::kAllLanes;
  // Toggle weights by code (0 none, 1 half, 2 full): 0, w/2, w.
  const __m512d toggle_scale = _mm512_setr_pd(0.0, 0.5, 1.0, 0, 0, 0, 0, 0);
  const BitBytes bits;
  const __m512i column = _mm512_setr_epi64(0, 8, 16, 24, 32, 40, 48, 56);
  // slow_leak's output, then the spilled leakage and load sums.
  alignas(64) double slow[3 * 64];
  for (int wi = 0; wi < a.words_used; ++wi) {
    __m512d leak[8];
    __m512d cap[8];
    unroll<8>([&](auto v) {
      leak[v] = _mm512_setzero_pd();
      cap[v] = _mm512_setzero_pd();
    });
    for (GateId g = 0; g < a.num_gates; ++g) {
      PatternWord full, half;
      pass_toggles(a, g, wi, full, half);
      // Branch-free: a gate word without toggles adds +0.0 everywhere.
      const __m512i code = _mm512_mask_mov_epi8(
          _mm512_maskz_mov_epi8(_cvtu64_mask64(half), bits.bit[0]),
          _cvtu64_mask64(full), bits.bit[1]);
      const __m512d weight =
          _mm512_mul_pd(_mm512_set1_pd(a.loads[g]), toggle_scale);
      unroll<8>([&](auto v) {
        const __m512i idx = _mm512_maskz_srli_epi64(kAll, code, 8 * v);
        cap[v] = _mm512_add_pd(
            cap[v], _mm512_maskz_permutexvar_pd(kAll, idx, weight));
      });

      const int k = a.width[g];
      if (k == 0) continue;
      PatternWord s[4];
      if (k <= 4 && !pass_states(a, g, wi, s)) [[likely]] {
        const double* table = a.tables + a.table_offset[g];
        const __m512d lo = _mm512_loadu_pd(table);
        const __m512d hi = _mm512_loadu_pd(table + 8);
        const __m512i state = state_bytes(s, 4, bits);
        unroll<8>([&](auto v) {
          const __m512i idx = _mm512_maskz_srli_epi64(kAll, state, 8 * v);
          leak[v] =
              _mm512_add_pd(leak[v], _mm512_permutex2var_pd(lo, idx, hi));
        });
        continue;
      }
      // The sums go through memory the callee may reach, so none is live
      // across the call and the hot path keeps all 16 in registers.
      unroll<8>([&](auto v) {
        _mm512_store_pd(slow + 64 + 8 * v, leak[v]);
        _mm512_store_pd(slow + 128 + 8 * v, cap[v]);
      });
      a.slow_leak(a.slow_ctx, g, wi, slow);
      unroll<8>([&](auto v) {
        const __m512i idx =
            _mm512_add_epi64(column, _mm512_set1_epi64(v));
        leak[v] = _mm512_add_pd(
            _mm512_load_pd(slow + 64 + 8 * v),
            _mm512_mask_i64gather_pd(_mm512_setzero_pd(), kAll, idx, slow,
                                     8));
        cap[v] = _mm512_load_pd(slow + 128 + 8 * v);
      });
    }
    alignas(64) double lt[64];
    alignas(64) double ct[64];
    unroll<8>([&](auto v) {
      _mm512_store_pd(lt + 8 * v, leak[v]);
      _mm512_store_pd(ct + 8 * v, cap[v]);
    });
    double* const out_leak = a.leak + static_cast<std::size_t>(wi) * 64;
    double* const out_cap = a.cap + static_cast<std::size_t>(wi) * 64;
    for (int v = 0; v < 8; ++v) {
      for (int e = 0; e < 8; ++e) {
        out_leak[8 * e + v] = lt[8 * v + e];
        out_cap[8 * e + v] = ct[8 * v + e];
      }
    }
  }
}

void obs_reduce(const PatternWord* v, const PatternWord* valid,
                const double* leak, int words, double* s1, std::uint32_t* c1) {
  __m256d acc = _mm256_setzero_pd();
  std::uint32_t cnt = 0;
  for (int w = 0; w < words; ++w) {
    const PatternWord bits = v[w] & valid[w];
    cnt += static_cast<std::uint32_t>(std::popcount(bits));
    if (bits == 0) continue;
    const double* const lw = leak + static_cast<std::size_t>(w) * 64;
    for (int i = 0; i < 64; i += 4) {
      const __mmask8 m = static_cast<__mmask8>((bits >> i) & 0xF);
      acc = _mm256_add_pd(acc, _mm256_maskz_loadu_pd(m, lw + i));
    }
  }
  double a[4];
  _mm256_storeu_pd(a, acc);
  *s1 = ((a[0] + a[1]) + a[2]) + a[3];
  *c1 = cnt;
}

const SimKernels kTable = {
    SimBackend::Avx512, &eval_full,   &eval_ternary, &cone_sweep,
    &leak_gather,       &obs_reduce,  &power_pass,
};

}  // namespace

const SimKernels* avx512_sim_kernels() { return &kTable; }

}  // namespace scanpower

#else  // !AVX-512 F/BW/DQ/VL

namespace scanpower {
const SimKernels* avx512_sim_kernels() { return nullptr; }
}  // namespace scanpower

#endif
