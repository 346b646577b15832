#include "scan/scan_sim.hpp"

#include <algorithm>

#include "atpg/sim_kernels.hpp"
#include "power/packed_leakage.hpp"
#include "util/assert.hpp"

namespace scanpower {

namespace {

/// Lanes of word `wi` that lie below `n`.
std::size_t lanes_in_word(std::size_t n, int wi) {
  const std::size_t lane0 = static_cast<std::size_t>(wi) * 64;
  return n > lane0 ? std::min<std::size_t>(64, n - lane0) : 0;
}

/// Bits [lo, hi) of a word, hi - lo <= 64.
PatternWord lane_range(unsigned lo, unsigned hi) {
  const unsigned len = hi - lo;
  return (len == 64 ? ~PatternWord{0} : (PatternWord{1} << len) - 1) << lo;
}

/// Bits [q, q + len) of a bit array, len <= 64, as the low bits of a
/// word. The array needs one readable word past bit q + len - 1.
PatternWord bit_window(const PatternWord* bits, std::size_t q, unsigned len) {
  const unsigned b = q % 64;
  PatternWord v = bits[q / 64] >> b;
  if (b != 0) v |= bits[q / 64 + 1] << (64 - b);
  return len == 64 ? v : v & ((PatternWord{1} << len) - 1);
}

/// One word of a source as a one-plane and an X-plane; lanes left in
/// neither are known 0.
struct SourceWord {
  PatternWord ones = 0;
  PatternWord xs = 0;

  void set(PatternWord lanes, Logic v) {
    if (v == Logic::One) ones |= lanes;
    if (v == Logic::X) xs |= lanes;
  }
  void store(TernaryBlockSimulator& sim, GateId id, int wi) const {
    sim.p1(id)[wi] = ones | xs;
    sim.p0(id)[wi] = ~ones | xs;
  }
};

/// Loads lanes [0, n) of a source from value(lane); lanes past n are
/// known 0 and never read.
template <typename ValueOf>
void load_source(TernaryBlockSimulator& sim, GateId id, std::size_t n,
                 ValueOf&& value) {
  for (int wi = 0; wi < sim.words(); ++wi) {
    SourceWord src;
    for (std::size_t b = 0; b < lanes_in_word(n, wi); ++b) {
      src.set(PatternWord{1} << b,
              value(static_cast<std::size_t>(wi) * 64 + b));
    }
    src.store(sim, id, wi);
  }
}

const Netlist& finalized(const Netlist& nl) {
  SP_CHECK(nl.finalized(), "ScanPowerEvaluator requires a finalized netlist");
  return nl;
}

/// Fanins of every gate up to 4 wide, padded to four with the simulator's
/// zero row (one past the last gate); wider gates get four zero rows.
std::vector<std::uint32_t> padded_fanins(const Netlist& nl) {
  const auto zero_row = static_cast<std::uint32_t>(nl.num_gates());
  std::vector<std::uint32_t> quads(nl.num_gates() * 4, zero_row);
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    const std::span<const GateId> fans = nl.fanin_span(id);
    if (fans.size() > 4) continue;
    std::copy(fans.begin(), fans.end(), quads.begin() + id * 4);
  }
  return quads;
}

/// PowerPassArgs::slow_leak over a PackedLeakageEvaluator.
struct SlowLeak {
  const PackedLeakageEvaluator* leakage;
  const SimKernels* kern;
  const TernaryBlockSimulator* sim;

  static void call(void* ctx, GateId g, int word, double* vals64) {
    const SlowLeak& self = *static_cast<const SlowLeak*>(ctx);
    std::fill_n(vals64, 64, 0.0);
    self.leakage->add_gate_word(*self.kern, *self.sim, g, word, vals64);
  }
};

}  // namespace

ScanPowerEvaluator::ScanPowerEvaluator(const Netlist& nl,
                                       const LeakageModel& leakage,
                                       const CapacitanceModel& caps,
                                       PowerConfig config)
    : nl_(&nl),
      config_(config),
      tables_(finalized(nl), leakage),
      loads_(caps.load_vector(nl)),
      fanins4_(padded_fanins(nl)) {}

ScanPowerResult ScanPowerEvaluator::evaluate(const TestSet& tests,
                                             std::span<const Logic> pi_control,
                                             std::span<const Logic> mux_control,
                                             const ScanSimOptions& opts) {
  const Netlist& nl = *nl_;
  const std::size_t num_pi = nl.inputs().size();
  const std::size_t chain_len = nl.dffs().size();
  SP_CHECK(pi_control.empty() || pi_control.size() == num_pi,
           "evaluate: pi_control size mismatch");
  SP_CHECK(mux_control.empty() || mux_control.size() == chain_len,
           "evaluate: mux_control size mismatch");
  SP_CHECK(opts.num_chains >= 1, "evaluate: num_chains must be >= 1");

  // Chain position -> dffs() index. Default: netlist order (the paper's
  // "no scan cell reordering" configuration).
  const ScanChainOrder default_order = ScanChainOrder::identity(chain_len);
  const ScanChainOrder& chain_order =
      opts.chain_order ? *opts.chain_order : default_order;
  SP_CHECK(chain_order.order.size() == chain_len &&
               chain_order.is_permutation(),
           "evaluate: invalid chain order");
  const std::vector<std::size_t>& order = chain_order.order;
  const std::span<const TestPattern> pats = tests.patterns;
  for (const TestPattern& test : pats) {
    SP_CHECK(test.pi.size() == num_pi && test.ppi.size() == chain_len,
             "evaluate: pattern size mismatch");
  }

  // Multi-chain layout: position p belongs to chain p % k at in-chain
  // index p / k; all chains shift together for ceil(L/k) cycles, shorter
  // chains padded with leading zeros so every cell lands on its bit.
  const std::size_t k = static_cast<std::size_t>(opts.num_chains);
  const std::size_t lmax = chain_len == 0 ? 0 : (chain_len + k - 1) / k;
  const std::size_t per_pattern = lmax + (opts.include_capture_cycles ? 1 : 0);
  const std::size_t num_cycles = pats.size() * per_pattern;

  TernaryBlockSimulator sim(nl, kBlockWords);
  const std::size_t lanes = sim.lanes();
  std::size_t sweeps = 0;

  // Captured responses, one pattern per lane: response[p * L + i] is the
  // D-pin value of dffs()[i] under (pi, ppi) of pattern p. Pattern p + 1
  // shifts it out. X pattern bits propagate, so a response bit may be X.
  std::vector<Logic> response;
  if (lmax > 0 && pats.size() > 1) {
    const std::size_t captured = pats.size() - 1;
    response.resize(captured * chain_len);
    for (std::size_t base = 0; base < captured; base += lanes) {
      const std::size_t n = std::min(lanes, captured - base);
      for (std::size_t i = 0; i < num_pi; ++i) {
        load_source(sim, nl.inputs()[i], n,
                    [&](std::size_t l) { return pats[base + l].pi[i]; });
      }
      for (std::size_t i = 0; i < chain_len; ++i) {
        load_source(sim, nl.dffs()[i], n,
                    [&](std::size_t l) { return pats[base + l].ppi[i]; });
      }
      sim.eval();
      ++sweeps;
      for (std::size_t i = 0; i < chain_len; ++i) {
        const GateId d = nl.fanin_span(nl.dffs()[i])[0];
        for (std::size_t l = 0; l < n; ++l) {
          response[(base + l) * chain_len + i] = sim.lane_value(d, l);
        }
      }
    }
  }

  // Chain streams. During pattern p's shift t, in-chain index j of chain
  // c holds bit q = lmax + t - j of the stream of (p, c): for q < lmax the
  // previous content of index lmax - 1 - q (the previous response, or the
  // initial state), then `pad` leading zeros, then the test bits scanned
  // in last-first. A free cell's shift lanes are one window of it.
  const std::size_t kc = std::min(k, chain_len);  // chains holding cells
  const std::size_t stream_bits = 2 * lmax;
  const std::size_t stream_words = stream_bits / 64 + 2;  // + a read pad
  std::vector<PatternWord> stream_ones(pats.size() * kc * stream_words, 0);
  std::vector<PatternWord> stream_xs(stream_ones.size(), 0);
  for (std::size_t p = 0; p < pats.size(); ++p) {
    for (std::size_t c = 0; c < kc; ++c) {
      const std::size_t at = (p * kc + c) * stream_words;
      PatternWord* const ones = stream_ones.data() + at;
      PatternWord* const xs = stream_xs.data() + at;
      const auto put = [&](std::size_t q, Logic v) {
        const PatternWord bit = PatternWord{1} << (q % 64);
        if (v == Logic::One) ones[q / 64] |= bit;
        if (v == Logic::X) xs[q / 64] |= bit;
      };
      const std::size_t lc = (chain_len - c + k - 1) / k;
      const std::size_t pad = lmax - lc;
      for (std::size_t m = 0; m < lc; ++m) {
        put(lmax - 1 - m,
            p == 0 ? opts.initial_state
                   : response[(p - 1) * chain_len + order[c + m * k]]);
      }
      for (std::size_t b = 0; b < lc; ++b) {  // b-th bit scanned in
        put(lmax + pad + b, pats[p].ppi[order[c + (lc - 1 - b) * k]]);
      }
    }
  }

  const PackedLeakageEvaluator leakage(nl, tables_, sim.backend());
  const SimKernels& kern = sim_kernels(sim.backend());
  SlowLeak slow{&leakage, &kern, &sim};
  std::vector<double> leak(lanes);
  std::vector<double> cap(lanes);
  // Planes of each gate's last lane in the previous sweep (bit 0).
  std::vector<PatternWord> carry1(nl.num_gates(), 0);
  std::vector<PatternWord> carry0(nl.num_gates(), 0);
  PatternWord valid[kBlockWords];

  PowerPassArgs pass;
  pass.num_gates = nl.num_gates();
  pass.p1 = sim.p1(0);
  pass.p0 = sim.p0(0);
  pass.words = kBlockWords;
  pass.width = tables_.widths();
  pass.table_offset = tables_.table_offsets();
  pass.tables = tables_.table_storage();
  pass.fanins4 = fanins4_.data();
  pass.slow_leak = &SlowLeak::call;
  pass.slow_ctx = &slow;
  pass.loads = loads_.data();
  pass.valid = valid;
  pass.carry1 = carry1.data();
  pass.carry0 = carry0.data();
  pass.leak = leak.data();
  pass.cap = cap.data();

  // One word's cycles: runs of consecutive shift cycles of one pattern,
  // and capture lanes (t == lmax: PIs and cells take the test's values).
  struct ShiftRun {
    std::size_t p, t0;
    unsigned lo, hi;  ///< lanes [lo, hi) hold shifts t0, t0 + 1, ...
  };
  struct Capture {
    std::size_t p;
    unsigned lane;
  };
  std::vector<ShiftRun> runs;
  std::vector<Capture> captures;

  // The reduction over cycles, in cycle order, with the arithmetic of a
  // cycle-by-cycle accumulator: the running toggle total is differenced
  // for the per-cycle peak, the first cycle counts no toggle.
  double toggle_total = 0.0;
  double last_total = 0.0;
  double peak_cap = 0.0;
  double leak_sum = 0.0;
  double peak_leak = 0.0;

  for (std::size_t base = 0; base < num_cycles; base += lanes) {
    const std::size_t n = std::min(lanes, num_cycles - base);
    // Words past the last cycle keep stale sources: the pass skips them.
    int words_used = 0;
    for (int wi = 0; wi < kBlockWords; ++wi) {
      const std::size_t count = lanes_in_word(n, wi);
      if (count == 0) break;
      words_used = wi + 1;
      valid[wi] = lane_range(0, static_cast<unsigned>(count));
      runs.clear();
      captures.clear();
      const std::size_t first = base + static_cast<std::size_t>(wi) * 64;
      for (unsigned r = 0; r < count;) {
        const std::size_t p = (first + r) / per_pattern;
        const std::size_t t = (first + r) % per_pattern;
        if (t == lmax) {
          captures.push_back({p, r++});
          continue;
        }
        const unsigned len = static_cast<unsigned>(
            std::min<std::size_t>(count - r, lmax - t));
        runs.push_back({p, t, r, r + len});
        r += len;
      }
      for (std::size_t i = 0; i < num_pi; ++i) {
        const Logic ctrl = pi_control.empty() ? Logic::X : pi_control[i];
        SourceWord src;
        for (const ShiftRun& run : runs) {
          // Uncontrolled PIs hold the previous test's values.
          const Logic held = run.p == 0 ? Logic::Zero : pats[run.p - 1].pi[i];
          src.set(lane_range(run.lo, run.hi), ctrl != Logic::X ? ctrl : held);
        }
        for (const Capture& cap_lane : captures) {
          src.set(PatternWord{1} << cap_lane.lane, pats[cap_lane.p].pi[i]);
        }
        src.store(sim, nl.inputs()[i], wi);
      }
      for (std::size_t pos = 0; pos < chain_len; ++pos) {
        const std::size_t cell = order[pos];
        const Logic mux = mux_control.empty() ? Logic::X : mux_control[cell];
        const std::size_t c = pos % k;
        const std::size_t j = pos / k;
        SourceWord src;
        for (const ShiftRun& run : runs) {
          if (mux != Logic::X) {
            src.set(lane_range(run.lo, run.hi), mux);
            continue;
          }
          const std::size_t at = (run.p * kc + c) * stream_words;
          const std::size_t q = lmax + run.t0 - j;
          const unsigned len = run.hi - run.lo;
          src.ones |= bit_window(stream_ones.data() + at, q, len) << run.lo;
          src.xs |= bit_window(stream_xs.data() + at, q, len) << run.lo;
        }
        for (const Capture& cap_lane : captures) {
          src.set(PatternWord{1} << cap_lane.lane, pats[cap_lane.p].ppi[cell]);
        }
        src.store(sim, nl.dffs()[cell], wi);
      }
    }
    sim.eval();
    ++sweeps;

    if (base == 0) valid[0] &= ~PatternWord{1};  // the first cycle
    pass.words_used = words_used;
    kern.power_pass(pass);

    for (std::size_t l = 0; l < n; ++l) {
      toggle_total += cap[l];
      const double cycle_cap = toggle_total - last_total;
      last_total = toggle_total;
      peak_cap = std::max(peak_cap, cycle_cap);
      peak_leak = std::max(peak_leak, leak[l]);
      leak_sum += leak[l];
    }
  }

  const double vdd = config_.vdd;
  const std::size_t transitions = num_cycles == 0 ? 0 : num_cycles - 1;
  ScanPowerResult res;
  res.mean_toggled_cap_ff =
      transitions ? toggle_total / static_cast<double>(transitions) : 0.0;
  // E/cycle = 1/2 VDD^2 * C_toggled;  C in fF -> 1e-15 F;  W -> 1e6 uW.
  res.dynamic_per_hz_uw =
      0.5 * vdd * vdd * (res.mean_toggled_cap_ff * 1e-15) * 1e6;
  res.mean_leakage_na =
      num_cycles ? leak_sum / static_cast<double>(num_cycles) : 0.0;
  res.static_uw = res.mean_leakage_na * vdd * 1e-3;
  res.peak_dynamic_per_hz_uw = 0.5 * vdd * vdd * peak_cap * 1e-15 * 1e6;
  res.peak_leakage_na = peak_leak;
  res.cycles = num_cycles;
  res.sweeps = sweeps;
  return res;
}

}  // namespace scanpower
