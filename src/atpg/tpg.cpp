#include "atpg/tpg.hpp"

#include <algorithm>
#include <optional>

#include "atpg/constant_lines.hpp"
#include "atpg/fault_sim.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace scanpower {

TestSet generate_tests(const Netlist& nl, const TpgOptions& opts) {
  Telemetry* telem = opts.fault_sim.telemetry;
  Rng rng(opts.seed);
  const std::vector<Fault> faults = collapse_faults(nl);
  FaultSimulator fsim(nl, opts.fault_sim);
  // One candidate batch fills one packed block (64 patterns per word).
  const std::size_t block_patterns =
      static_cast<std::size_t>(fsim.options().block_words) * 64;

  TestSet ts;
  ts.seed = opts.seed;
  ts.total_faults = faults.size();

  std::vector<bool> detected(faults.size(), false);
  std::size_t num_detected = 0;

  // ---- Phase 1: random patterns with fault dropping -------------------
  std::optional<TraceSpan> phase(std::in_place, telem, "tpg.random");
  int dry_batches = 0;
  for (int batch = 0;
       batch < opts.max_random_batches &&
       dry_batches < opts.unproductive_batch_limit &&
       num_detected < faults.size();
       ++batch) {
    std::vector<TestPattern> cand;
    cand.reserve(block_patterns);
    for (std::size_t i = 0; i < block_patterns; ++i) {
      cand.push_back(random_pattern(nl, rng));
    }
    const FaultSimResult res = fsim.run(cand, faults, &detected);
    if (res.num_detected == 0) {
      ++dry_batches;
      continue;
    }
    dry_batches = 0;
    num_detected += res.num_detected;
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (res.detected[fi]) detected[fi] = true;
    }
    for (std::size_t p = 0; p < cand.size(); ++p) {
      if (res.new_detects_per_pattern[p] > 0) {
        ts.patterns.push_back(std::move(cand[p]));
      }
    }
  }
  SP_LOG_INFO(strprintf("tpg[%s]: random phase %zu/%zu faults, %zu patterns",
                     nl.name().c_str(), num_detected, faults.size(),
                     ts.patterns.size()));

  // ---- Phase 2: PODEM top-off -----------------------------------------
  // PODEM prunes with the lines learned constant, at its own backtrack
  // budget per line. Learning draws nothing from `rng`.
  std::vector<Logic> constants;
  if (num_detected < faults.size()) {
    phase.emplace(telem, "tpg.learn");
    constants = learn_constant_lines(nl, opts.podem_backtrack_limit);
    SP_TELEM_ADD(telem, 0, CounterId::kTpgConstantLines,
                 std::count_if(constants.begin(), constants.end(),
                               [](Logic v) { return is_known(v); }));
  }
  phase.emplace(telem, "tpg.podem");
  // Generated patterns are fault-simulated in block-wide batches: collateral
  // dropping within a batch is deferred (a handful of redundant PODEM
  // calls), which is far cheaper than one fault-sim pass per pattern on
  // large fault lists.
  PodemOptions popts;
  popts.backtrack_limit = opts.podem_backtrack_limit;
  popts.telemetry = telem;
  popts.constant_lines = constants;
  Podem podem(nl, popts);
  // Stem faults PODEM proved untestable, by (gate, stuck-at value): a pin
  // fault they dominate is untestable too and skips PODEM.
  std::vector<std::uint8_t> untestable_stem(2 * nl.num_gates(), 0);
  const auto stem_slot = [](const Fault& f) {
    return 2 * static_cast<std::size_t>(f.gate) + (f.stuck_at ? 1 : 0);
  };
  std::size_t inferred = 0;
  std::vector<TestPattern> batch;
  auto flush_batch = [&]() {
    if (batch.empty()) return;
    const FaultSimResult res = fsim.run(batch, faults, &detected);
    num_detected += res.num_detected;
    for (std::size_t k = 0; k < faults.size(); ++k) {
      if (res.detected[k]) detected[k] = true;
    }
    for (TestPattern& p : batch) ts.patterns.push_back(std::move(p));
    batch.clear();
  };
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (detected[fi]) continue;
    if (const auto dom = dominating_output_fault(nl, faults[fi])) {
      const Fault rep = collapse_representative(nl, *dom);
      if (rep.pin < 0 && untestable_stem[stem_slot(rep)]) {
        ts.untestable_faults++;
        ++inferred;
        continue;
      }
    }
    const PodemResult pr = podem.generate(faults[fi]);
    if (pr.status == PodemStatus::Untestable) {
      ts.untestable_faults++;
      if (faults[fi].pin < 0) untestable_stem[stem_slot(faults[fi])] = 1;
      continue;
    }
    if (pr.status == PodemStatus::Aborted) {
      ts.aborted_faults++;
      continue;
    }
    TestPattern pat = pr.pattern;
    pat.random_fill(rng);
    batch.push_back(std::move(pat));
    if (batch.size() == block_patterns) flush_batch();
  }
  flush_batch();
  SP_TELEM_ADD(telem, 0, CounterId::kTpgUntestableInferred, inferred);
  SP_LOG_INFO(strprintf(
      "tpg[%s]: after PODEM %zu/%zu faults (%zu untestable, %zu aborted), "
      "%zu patterns",
      nl.name().c_str(), num_detected, faults.size(), ts.untestable_faults,
      ts.aborted_faults, ts.patterns.size()));

  // ---- Phase 3: reverse-order compaction -------------------------------
  phase.emplace(telem, "tpg.compact");
  if (opts.compact && !ts.patterns.empty()) {
    std::vector<TestPattern> reversed(ts.patterns.rbegin(),
                                      ts.patterns.rend());
    const FaultSimResult res = fsim.run(reversed, faults);
    std::vector<TestPattern> kept;
    for (std::size_t p = 0; p < reversed.size(); ++p) {
      if (res.new_detects_per_pattern[p] > 0) {
        kept.push_back(std::move(reversed[p]));
      }
    }
    ts.patterns = std::move(kept);
  }

  // Final coverage accounting on the compacted set.
  const FaultSimResult final_res = fsim.run(ts.patterns, faults);
  ts.detected_faults = final_res.num_detected;
  SP_LOG_INFO(strprintf("tpg[%s]: final %zu patterns, coverage %.2f%%",
                     nl.name().c_str(), ts.patterns.size(),
                     100.0 * ts.fault_coverage()));
  return ts;
}

}  // namespace scanpower
