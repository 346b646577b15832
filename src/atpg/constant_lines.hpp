#pragma once
// Learned constant lines: combinational lines that hold one value under
// every assignment of the sources (PIs and DFF outputs), after SOCRATES
// static learning [Schulz et al., 1988].
//
// Candidates are the lines that never toggle over 16 packed good-machine
// sweeps of 512 random patterns each, from fixed seeds (the learner's
// own, so learning draws nothing from the ATPG random stream); the more
// patterns, the fewer justifiable lines reach the proof search below.
// Candidates are visited in level order. A candidate whose already
// learned fanins fix its value (3-valued evaluation) is constant
// outright. Any other candidate with value c is proven by a good-machine
// search over all sources for the value !c (Justifier::probe). A line is
// recorded only when that search is exhausted; a budget abort proves
// nothing and leaves it unknown. The proven set therefore does not
// depend on the sweeps: every true constant is a candidate, and a line
// that toggles is never recorded.
//
// PODEM reads the result through PodemOptions::constant_lines, only to
// prune subtrees that hold no test.

#include <vector>

#include "netlist/netlist.hpp"
#include "sim/logic.hpp"

namespace scanpower {

/// Per gate: the value the line holds under every source assignment, or X
/// where none is proven within `backtrack_limit` backtracks per line.
/// Sources are never constant.
std::vector<Logic> learn_constant_lines(const Netlist& nl,
                                        int backtrack_limit);

}  // namespace scanpower
