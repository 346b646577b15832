// Scalar backend: the portable word engine, compiled with the project's
// baseline flags. This TU's kernels are the bit-exactness reference every
// other backend is cross-checked against (tests/test_backend.cpp).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "atpg/packed_sim.hpp"
#include "atpg/sim_kernels.hpp"
#include "util/assert.hpp"

namespace scanpower {
namespace {

#include "atpg/sim_kernels_impl.inc"

void eval_full(const Netlist& nl, PatternWord* values, int words) {
  dispatch_block_words(
      words, [&](auto w) { eval_full_impl<decltype(w)::value>(nl, values); });
}

void eval_ternary(const Netlist& nl, PatternWord* p1, PatternWord* p0,
                  int words) {
  dispatch_block_words(words, [&](auto w) {
    eval_ternary_impl<decltype(w)::value>(nl, p1, p0);
  });
}

void cone_sweep(ConeSweepArgs& a, int words) {
  dispatch_block_words(
      words, [&](auto w) { cone_sweep_impl<decltype(w)::value>(a); });
}

const SimKernels kTable = {
    SimBackend::Scalar, &eval_full,       &eval_ternary,
    &cone_sweep,        &leak_gather_impl, &obs_reduce_impl,
    &power_pass_impl,
};

}  // namespace

const SimKernels* scalar_sim_kernels() { return &kTable; }

}  // namespace scanpower
