#include "atpg/constant_lines.hpp"

#include "atpg/packed_sim.hpp"
#include "core/justify.hpp"
#include "util/rng.hpp"

namespace scanpower {

namespace {

/// The candidate sweeps: kSweeps blocks of 512 random patterns, block b
/// drawn from seed kSweepSeed + b.
constexpr int kSweepWords = 8;
constexpr int kSweeps = 16;
constexpr std::uint64_t kSweepSeed = 0xc0ffee5eed5ULL;

}  // namespace

std::vector<Logic> learn_constant_lines(const Netlist& nl,
                                        int backtrack_limit) {
  // Per gate: bit 0 = seen at 0, bit 1 = seen at 1, over every sweep.
  std::vector<std::uint8_t> seen(nl.num_gates(), 0);
  BlockSimulator sim(nl, kSweepWords);
  for (int b = 0; b < kSweeps; ++b) {
    Rng rng(kSweepSeed + static_cast<std::uint64_t>(b));
    const auto randomize = [&](GateId src) {
      for (int w = 0; w < kSweepWords; ++w) {
        sim.set_source_word(src, w, rng.next_u64());
      }
    };
    for (GateId pi : nl.inputs()) randomize(pi);
    for (GateId ff : nl.dffs()) randomize(ff);
    sim.eval();
    for (GateId g : nl.topo_order()) {
      const PatternWord* v = sim.block(g);
      PatternWord ones = 0;
      PatternWord zeros = 0;
      for (int w = 0; w < kSweepWords; ++w) {
        ones |= v[w];
        zeros |= ~v[w];
      }
      seen[g] |= static_cast<std::uint8_t>((zeros != 0) | (ones != 0) << 1);
    }
  }

  // Every source is a decision point of the proof search.
  std::vector<bool> all_sources(nl.num_gates(), false);
  for (GateId pi : nl.inputs()) all_sources[pi] = true;
  for (GateId ff : nl.dffs()) all_sources[ff] = true;
  Justifier search(nl, std::move(all_sources));

  std::vector<Logic> constant(nl.num_gates(), Logic::X);
  std::vector<Logic> ins;
  for (GateId g : nl.topo_order()) {  // combinational gates only
    if (seen[g] == 3) continue;  // toggles
    // Fanins already learned may fix the gate on their own (a constant at
    // its controlling value, say): then it needs no search.
    ins.clear();
    for (GateId f : nl.fanin_span(g)) ins.push_back(constant[f]);
    constant[g] = eval_gate(nl.type(g), ins);
    if (is_known(constant[g])) continue;
    const bool c = seen[g] == 2;
    if (search.probe(g, !c, backtrack_limit) == JustifyStatus::Unjustifiable) {
      constant[g] = from_bool(c);
    }
  }
  return constant;
}

}  // namespace scanpower
