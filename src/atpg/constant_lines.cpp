#include "atpg/constant_lines.hpp"

#include "atpg/packed_sim.hpp"
#include "core/justify.hpp"
#include "util/rng.hpp"

namespace scanpower {

namespace {

/// The candidate sweep: 512 random patterns from a fixed seed.
constexpr int kSweepWords = 8;
constexpr std::uint64_t kSweepSeed = 0xc0ffee5eed5ULL;

}  // namespace

std::vector<Logic> learn_constant_lines(const Netlist& nl,
                                        int backtrack_limit) {
  BlockSimulator sim(nl, kSweepWords);
  Rng rng(kSweepSeed);
  const auto randomize = [&](GateId src) {
    for (int w = 0; w < kSweepWords; ++w) {
      sim.set_source_word(src, w, rng.next_u64());
    }
  };
  for (GateId pi : nl.inputs()) randomize(pi);
  for (GateId ff : nl.dffs()) randomize(ff);
  sim.eval();

  // Every source is a decision point of the proof search.
  std::vector<bool> all_sources(nl.num_gates(), false);
  for (GateId pi : nl.inputs()) all_sources[pi] = true;
  for (GateId ff : nl.dffs()) all_sources[ff] = true;
  Justifier search(nl, std::move(all_sources));

  std::vector<Logic> constant(nl.num_gates(), Logic::X);
  std::vector<Logic> ins;
  for (GateId g : nl.topo_order()) {  // combinational gates only
    const PatternWord* v = sim.block(g);
    PatternWord ones = 0;
    PatternWord zeros = 0;
    for (int w = 0; w < kSweepWords; ++w) {
      ones |= v[w];
      zeros |= ~v[w];
    }
    if (ones != 0 && zeros != 0) continue;  // toggles
    // Fanins already learned may fix the gate on their own (a constant at
    // its controlling value, say): then it needs no search.
    ins.clear();
    for (GateId f : nl.fanin_span(g)) ins.push_back(constant[f]);
    constant[g] = eval_gate(nl.type(g), ins);
    if (is_known(constant[g])) continue;
    const bool c = ones != 0;
    if (search.probe(g, !c, backtrack_limit) == JustifyStatus::Unjustifiable) {
      constant[g] = from_bool(c);
    }
  }
  return constant;
}

}  // namespace scanpower
