// flow_atpg and flow_power: closed-loop Table-I rows, one at a time.
//
// Untraced runs time whole rows through the library's own entry points:
// ScanSession::run_flow() on flow_atpg, and the public per-column calls
// with ATPG bypassed on flow_power. Traced runs alternate such a row with
// a staged replica that calls every stage in run_flow's order under a
// span, so each layer's time is measured from outside the library; the
// replica's FlowResult must equal the library's field by field.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "bench/bench_common.hpp"
#include "calib.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace scanpower;

/// Calls f(name, a.field, b.field) for every field of a FlowResult, so
/// one list drives both the field-by-field comparison and the digest.
template <typename F>
void visit_fields(const FlowResult& a, const FlowResult& b, F&& f) {
  f("circuit", a.circuit, b.circuit);
  f("stats.num_inputs", a.stats.num_inputs, b.stats.num_inputs);
  f("stats.num_outputs", a.stats.num_outputs, b.stats.num_outputs);
  f("stats.num_dffs", a.stats.num_dffs, b.stats.num_dffs);
  f("stats.num_comb_gates", a.stats.num_comb_gates, b.stats.num_comb_gates);
  f("stats.depth", a.stats.depth, b.stats.depth);
  f("stats.avg_fanout", a.stats.avg_fanout, b.stats.avg_fanout);
  f("stats.max_fanout", a.stats.max_fanout, b.stats.max_fanout);
  f("num_patterns", a.num_patterns, b.num_patterns);
  f("fault_coverage", a.fault_coverage, b.fault_coverage);
  f("mux_plan.multiplexed", a.mux_plan.multiplexed, b.mux_plan.multiplexed);
  f("mux_plan.base_critical_delay_ps", a.mux_plan.base_critical_delay_ps,
    b.mux_plan.base_critical_delay_ps);
  f("mux_plan.num_multiplexed", a.mux_plan.num_multiplexed,
    b.mux_plan.num_multiplexed);
  f("pattern.pi_pattern", a.pattern.pi_pattern, b.pattern.pi_pattern);
  f("pattern.mux_pattern", a.pattern.mux_pattern, b.pattern.mux_pattern);
  f("pattern.implied_values", a.pattern.implied_values,
    b.pattern.implied_values);
  f("pattern.transition_nodes", a.pattern.transition_nodes,
    b.pattern.transition_nodes);
  f("pattern.gates_blocked", a.pattern.gates_blocked, b.pattern.gates_blocked);
  f("pattern.gates_propagated", a.pattern.gates_propagated,
    b.pattern.gates_propagated);
  f("pattern.transition_lines", a.pattern.transition_lines,
    b.pattern.transition_lines);
  f("fill.best_leakage_na", a.fill.best_leakage_na, b.fill.best_leakage_na);
  f("fill.first_leakage_na", a.fill.first_leakage_na,
    b.fill.first_leakage_na);
  f("fill.trials", a.fill.trials, b.fill.trials);
  f("fill.free_inputs", a.fill.free_inputs, b.fill.free_inputs);
  f("reorder.gates_considered", a.reorder.gates_considered,
    b.reorder.gates_considered);
  f("reorder.gates_permuted", a.reorder.gates_permuted,
    b.reorder.gates_permuted);
  f("reorder.leakage_before_na", a.reorder.leakage_before_na,
    b.reorder.leakage_before_na);
  f("reorder.leakage_after_na", a.reorder.leakage_after_na,
    b.reorder.leakage_after_na);
  const std::pair<const char*, const ScanPowerResult*> cols_a[] = {
      {"traditional", &a.traditional},
      {"input_control", &a.input_control},
      {"proposed", &a.proposed}};
  const ScanPowerResult* cols_b[] = {&b.traditional, &b.input_control,
                                     &b.proposed};
  for (int c = 0; c < 3; ++c) {
    const ScanPowerResult& x = *cols_a[c].second;
    const ScanPowerResult& y = *cols_b[c];
    const std::string p = std::string(cols_a[c].first) + ".";
    f((p + "dynamic_per_hz_uw").c_str(), x.dynamic_per_hz_uw,
      y.dynamic_per_hz_uw);
    f((p + "static_uw").c_str(), x.static_uw, y.static_uw);
    f((p + "mean_toggled_cap_ff").c_str(), x.mean_toggled_cap_ff,
      y.mean_toggled_cap_ff);
    f((p + "mean_leakage_na").c_str(), x.mean_leakage_na, y.mean_leakage_na);
    f((p + "peak_dynamic_per_hz_uw").c_str(), x.peak_dynamic_per_hz_uw,
      y.peak_dynamic_per_hz_uw);
    f((p + "peak_leakage_na").c_str(), x.peak_leakage_na, y.peak_leakage_na);
    f((p + "cycles").c_str(), x.cycles, y.cycles);
  }
  f("dyn_vs_traditional_pct", a.dyn_vs_traditional_pct,
    b.dyn_vs_traditional_pct);
  f("stat_vs_traditional_pct", a.stat_vs_traditional_pct,
    b.stat_vs_traditional_pct);
  f("dyn_vs_input_control_pct", a.dyn_vs_input_control_pct,
    b.dyn_vs_input_control_pct);
  f("stat_vs_input_control_pct", a.stat_vs_input_control_pct,
    b.stat_vs_input_control_pct);
}

/// Names of the fields where `a` and `b` differ (doubles compared exactly).
std::vector<std::string> differing_fields(const FlowResult& a,
                                          const FlowResult& b) {
  std::vector<std::string> out;
  visit_fields(a, b, [&](const char* name, const auto& x, const auto& y) {
    if (!(x == y)) out.emplace_back(name);
  });
  return out;
}

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ c[i]) * 0x100000001b3ULL;
  }
  template <typename T>
  void add(const T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      bytes(v.data(), v.size());
    } else if constexpr (std::is_same_v<T, std::vector<bool>>) {
      for (bool b : v) add(b);
    } else if constexpr (requires { v.begin(); }) {
      for (const auto& x : v) add(x);
    } else {
      bytes(&v, sizeof v);
    }
  }
};

/// Stable digest of every FlowResult field.
std::uint64_t digest(const FlowResult& r) {
  Fnv fnv;
  visit_fields(r, r, [&](const char*, const auto& x, const auto&) {
    fnv.add(x);
  });
  return fnv.h;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

FlowResult with_improvements(FlowResult r) {
  r.dyn_vs_traditional_pct = improvement_pct(r.traditional.dynamic_per_hz_uw,
                                             r.proposed.dynamic_per_hz_uw);
  r.stat_vs_traditional_pct =
      improvement_pct(r.traditional.static_uw, r.proposed.static_uw);
  r.dyn_vs_input_control_pct = improvement_pct(
      r.input_control.dynamic_per_hz_uw, r.proposed.dynamic_per_hz_uw);
  r.stat_vs_input_control_pct =
      improvement_pct(r.input_control.static_uw, r.proposed.static_uw);
  return r;
}

TestSet capped(const TestSet& tests, std::size_t cap) {
  TestSet out = tests;
  if (cap != 0 && out.patterns.size() > cap) out.patterns.resize(cap);
  return out;
}

/// Values implied by the final control pattern (controlled inputs at
/// their constants, the rest X): the pin reorderer's input.
std::vector<Logic> implied_scan_values(const Netlist& nl,
                                       std::span<const Logic> pi,
                                       std::span<const Logic> mux) {
  Simulator sim(nl);
  for (std::size_t k = 0; k < nl.inputs().size(); ++k) {
    sim.set_input(nl.inputs()[k], pi.empty() ? Logic::X : pi[k]);
  }
  for (std::size_t c = 0; c < nl.dffs().size(); ++c) {
    sim.set_state(nl.dffs()[c], mux.empty() ? Logic::X : mux[c]);
  }
  sim.eval();
  return sim.values();
}

FindPatternOptions undirected(const FlowOptions& opts) {
  FindPatternOptions fo;
  fo.observability = nullptr;
  fo.justify_backtrack_limit = opts.justify_backtrack_limit;
  return fo;
}

MuxPlan no_muxes(const Netlist& nl) {
  MuxPlan plan;
  plan.multiplexed.assign(nl.dffs().size(), false);
  return plan;
}

/// One row with every stage called through its public function, in
/// run_flow's order, each under a span. `given` bypasses ATPG.
FlowResult staged_row(const Netlist& nl, const FlowOptions& opts,
                      const TestSet* given, SpanRecorder& rec) {
  Span row(rec, "row");
  FlowResult res;
  res.circuit = nl.name();
  res.stats = compute_stats(nl);
  const LeakageModel model(opts.leakage_params);
  const CapacitanceModel& caps = opts.delay.caps();

  TestSet tests;
  if (given) {
    tests = *given;
  } else {
    Span s(rec, "atpg");
    tests = generate_tests(nl, opts.tpg);
  }
  res.num_patterns = tests.patterns.size();
  res.fault_coverage = tests.fault_coverage();
  const TestSet eval_tests = capped(tests, opts.max_power_patterns);

  ThreadPool pool(std::max({ThreadPool::resolve_threads(opts.diag.num_threads),
                            ThreadPool::resolve_threads(
                                opts.observability.num_threads),
                            ThreadPool::resolve_threads(
                                opts.fill.num_threads)}));
  std::unique_ptr<GateLeakageTables> tables;
  const auto leakage_tables = [&]() -> const GateLeakageTables* {
    if (!tables) {
      Span s(rec, "leakage_tables");
      tables = std::make_unique<GateLeakageTables>(nl, model);
    }
    return tables.get();
  };
  const auto evaluate = [&](const Netlist& n, std::span<const Logic> pi,
                            std::span<const Logic> mux) {
    Span s(rec, "power_eval");
    ScanPowerEvaluator eval(n, model, caps, opts.power);
    return eval.evaluate(eval_tests, pi, mux, opts.scan);
  };

  // traditional scan
  res.traditional = evaluate(nl, {}, {});

  // input control
  {
    const MuxPlan none = no_muxes(nl);
    FindPatternResult pat;
    {
      Span s(rec, "find_pattern");
      pat = find_controlled_input_pattern(nl, none, caps, undirected(opts));
    }
    FillOptions fo = opts.fill;
    fo.minimize_leakage = false;
    if (fo.packed) {
      fo.tables = leakage_tables();
      fo.pool = &pool;
    }
    {
      Span s(rec, "fill");
      fill_dont_cares_min_leakage(nl, model, pat.pi_pattern, pat.mux_pattern,
                                  none.multiplexed, fo);
    }
    res.input_control = evaluate(nl, pat.pi_pattern, {});
  }

  // proposed
  if (opts.insert_muxes) {
    Span s(rec, "add_mux");
    res.mux_plan = plan_muxes(nl, opts.delay, opts.mux);
  } else {
    res.mux_plan = no_muxes(nl);
  }
  std::unique_ptr<LeakageObservability> obs;
  FindPatternOptions fp;
  fp.justify_backtrack_limit = opts.justify_backtrack_limit;
  if (opts.use_observability_directive) {
    ObservabilityOptions oo = opts.observability;
    if (oo.method == ObservabilityMethod::MonteCarlo && oo.packed) {
      oo.tables = leakage_tables();
      oo.pool = &pool;
    }
    Span s(rec, "observability");
    obs = std::make_unique<LeakageObservability>(nl, model, oo);
    fp.observability = &obs->values();
  }
  {
    Span s(rec, "find_pattern");
    res.pattern = find_controlled_input_pattern(nl, res.mux_plan, caps, fp);
  }
  {
    FillOptions fo = opts.fill;
    fo.minimize_leakage = opts.do_min_leakage_fill;
    if (fo.packed) {
      fo.tables = leakage_tables();
      fo.pool = &pool;
    }
    Span s(rec, "fill");
    res.fill = fill_dont_cares_min_leakage(nl, model, res.pattern.pi_pattern,
                                           res.pattern.mux_pattern,
                                           res.mux_plan.multiplexed, fo);
  }
  Netlist tuned;
  {
    Span s(rec, "reorder");
    tuned = nl;
    if (opts.do_pin_reorder) {
      const std::vector<Logic> scan_vals = implied_scan_values(
          nl, res.pattern.pi_pattern, res.pattern.mux_pattern);
      res.reorder = reorder_pins_for_leakage(tuned, model, scan_vals);
    }
  }
  res.proposed =
      evaluate(tuned, res.pattern.pi_pattern, res.pattern.mux_pattern);
  return with_improvements(std::move(res));
}

/// flow_power's row through the library's public calls: the three columns
/// on a caller-supplied test set, ATPG never runs.
FlowResult power_row(const Netlist& nl, const FlowOptions& opts,
                     const TestSet& ts) {
  ScanSession s(nl, opts);
  FlowResult r;
  r.circuit = nl.name();
  r.stats = compute_stats(s.netlist());
  r.num_patterns = ts.patterns.size();
  r.fault_coverage = ts.fault_coverage();
  r.traditional = s.power_report(ts);
  const MuxPlan none = no_muxes(s.netlist());
  FindPatternResult pat = find_controlled_input_pattern(
      s.netlist(), none, opts.delay.caps(), undirected(opts));
  FillOptions fo = opts.fill;
  fo.minimize_leakage = false;
  if (fo.packed) {
    fo.tables = &s.leakage_tables();
    fo.pool = &s.pool();
  }
  fill_dont_cares_min_leakage(s.netlist(), s.leakage_model(), pat.pi_pattern,
                              pat.mux_pattern, none.multiplexed, fo);
  r.input_control = s.power_report(ts, pat.pi_pattern);
  r.proposed = s.run_proposed(ts, &r);
  return with_improvements(std::move(r));
}

/// Set-up as a user pays it: build the circuit, map it onto the library,
/// pick the tuned options and construct a session. Every stage runs on
/// one thread (results are the same at any thread count), so a row's CPU
/// time is its work: on a shared host, worker threads waiting for a core
/// the host lent elsewhere would measure the neighbours instead.
Netlist set_up(const Args& args, FlowOptions& opts) {
  Netlist nl = benchtool::prepare_circuit(args.circuit);
  opts = benchtool::tuned_options(compute_stats(nl).num_comb_gates);
  opts.tpg.fault_sim.num_threads = 1;
  opts.observability.num_threads = 1;
  opts.fill.num_threads = 1;
  opts.diag.num_threads = 1;
  { ScanSession session(nl, opts); }
  return nl;
}

/// Samples set-up's CPU time (setup_s, the end-to-end metric) and its
/// wall time (setup_wall_s, kept in the result set).
Netlist timed_set_up(const Args& args, Report& rep, FlowOptions& opts) {
  const double c0 = process_cpu_ms();
  const auto t0 = Clock::now();
  Netlist nl = set_up(args, opts);
  rep.sample("setup_wall_s", ms_since(t0) / 1e3);
  rep.sample("setup_s", (process_cpu_ms() - c0) / 1e3);
  return nl;
}

/// Quality figures and per-layer counts of one row.
void record_row(Report& rep, const FlowResult& r) {
  rep.value("q.coverage_pct", 100.0 * r.fault_coverage);
  rep.value("q.patterns", static_cast<double>(r.num_patterns));
  rep.value("q.dyn_saving_pct", r.dyn_vs_traditional_pct);
  rep.value("q.static_saving_pct", r.stat_vs_traditional_pct);
  rep.value("add_mux.muxed", static_cast<double>(r.mux_plan.num_multiplexed));
  rep.value("power_eval.calls", 3);
  rep.value("power_eval.cycles",
            static_cast<double>(r.traditional.cycles + r.input_control.cycles +
                                r.proposed.cycles));
  const double blocked = static_cast<double>(r.pattern.gates_blocked);
  const double propagated = static_cast<double>(r.pattern.gates_propagated);
  rep.value("find_pattern.blocked", blocked);
  rep.value("find_pattern.propagated", propagated);
  rep.value("find_pattern.block_ratio",
            blocked + propagated > 0 ? blocked / (blocked + propagated) : 0.0);
  rep.value("fill.trials", r.fill.trials);
  rep.value("fill.free_inputs", static_cast<double>(r.fill.free_inputs));
  rep.value("reorder.permuted", static_cast<double>(r.reorder.gates_permuted));
}

void record_atpg(Report& rep, const TestSet& t) {
  rep.value("atpg.patterns", static_cast<double>(t.patterns.size()));
  rep.value("atpg.detected", static_cast<double>(t.detected_faults));
  rep.value("atpg.untestable", static_cast<double>(t.untestable_faults));
  rep.value("atpg.aborted", static_cast<double>(t.aborted_faults));
  rep.value("atpg.efficiency", t.test_efficiency());
}

/// Host-speed reference bursts between rows (and after the last one).
constexpr int kSpeedBursts = 8;

/// The closed loop shared by both flows. Row i runs input i % num_inputs;
/// untraced runs time rows until the next one would overrun --seconds
/// (but cover every input at least once). Traced runs alternate each row
/// with the staged replica, which must reproduce it field by field. Set-up
/// is timed again before every row (and the result discarded), so its
/// median samples the machine over the same stretch of time as the rows.
void run_rows(const Args& args, Report& rep, SpanRecorder& rec,
              std::size_t num_inputs,
              const std::function<FlowResult(std::size_t)>& row,
              const std::function<FlowResult(std::size_t, SpanRecorder&)>&
                  staged) {
  const double budget_ms = args.seconds * 1e3;
  const auto start = Clock::now();
  std::vector<std::uint64_t> first;  // digest of each input's first row
  bool stable = true;
  bool shape = true;
  bool replica = true;
  std::string replica_diff;
  std::size_t rows = 0;
  SpeedReference speed;
  for (;; ++rows) {
    const std::size_t input = rows % num_inputs;
    FlowOptions unused;
    timed_set_up(args, rep, unused);
    for (int b = 0; b < kSpeedBursts; ++b) rep.sample("speed_ms", speed.burst());
    const double c0 = process_cpu_ms();
    auto t0 = Clock::now();
    const FlowResult r = row(input);
    const double ms = ms_since(t0);
    rep.sample("row_cpu_ms", process_cpu_ms() - c0);
    rep.sample("row_ms", ms);
    rep.sample("row_input", static_cast<double>(input));
    const std::uint64_t d = digest(r);
    if (rows == 0) record_row(rep, r);
    if (rows < num_inputs) first.push_back(d);
    stable = stable && d == first[input];
    shape = shape &&
            r.proposed.dynamic_per_hz_uw <= r.traditional.dynamic_per_hz_uw &&
            r.proposed.static_uw <= r.traditional.static_uw;
    double last_ms = ms;
    if (args.trace) {
      t0 = Clock::now();
      const FlowResult s = staged(input, rec);
      const double traced_ms = ms_since(t0);
      rep.sample("traced_row_ms", traced_ms);
      last_ms += traced_ms;
      const std::vector<std::string> diff = differing_fields(s, r);
      if (!diff.empty() && replica) {
        replica = false;
        for (const auto& f : diff) replica_diff += f + " ";
      }
    }
    // Stop where the run ends closest to --seconds.
    if (rows + 1 >= num_inputs && ms_since(start) + last_ms / 2 > budget_ms) {
      ++rows;
      break;
    }
  }
  for (int b = 0; b < kSpeedBursts; ++b) rep.sample("speed_ms", speed.burst());
  Fnv all;
  all.add(first);
  rep.value("rows", static_cast<double>(rows));
  rep.text("digest", hex(all.h));
  rep.gate("digest_stable", stable,
           "every row of an input repeats that input's first digest");
  rep.gate("table1_shape", shape,
           "proposed <= traditional on dynamic and static power");
  if (args.trace) {
    rep.gate("replica_equal", replica,
             replica ? "staged replica equals the library row field by field"
                     : "fields differ: " + replica_diff);
  }
}

}  // namespace

void run_flow_atpg(const Args& args, Report& rep, SpanRecorder& rec) {
  FlowOptions opts;
  const Netlist nl = timed_set_up(args, rep, opts);
  // The row's generated input is the seed of the ATPG random phase. A run
  // cycles through --atpg-inputs of them, drawn from --seed; their rows
  // cost 1.5-2.2 s on s510, so a run averages over several draws and does
  // not hang on one draw's share of PODEM work.
  std::vector<FlowOptions> inputs(std::max<std::size_t>(1, args.atpg_inputs),
                                  opts);
  Rng rng(args.seed);
  for (FlowOptions& o : inputs) o.tpg.seed = rng.next_u64();
  TestSet tests;
  run_rows(
      args, rep, rec, inputs.size(),
      [&](std::size_t i) {
        ScanSession session(nl, inputs[i]);
        FlowResult r = session.run_flow();
        if (tests.patterns.empty()) tests = session.tests();
        return r;
      },
      [&](std::size_t i, SpanRecorder& r) {
        return staged_row(nl, inputs[i], nullptr, r);
      });
  record_atpg(rep, tests);
}

void run_flow_power(const Args& args, Report& rep, SpanRecorder& rec) {
  FlowOptions opts;
  const Netlist nl = timed_set_up(args, rep, opts);
  // Generated before timing: a seeded, fully specified random test set.
  TestSet ts;
  Rng rng(args.seed ^ 0x9e3779b97f4a7c15ULL);
  for (std::size_t i = 0; i < args.power_patterns; ++i) {
    ts.patterns.push_back(random_pattern(nl, rng));
  }
  run_rows(
      args, rep, rec, 1, [&](std::size_t) { return power_row(nl, opts, ts); },
      [&](std::size_t, SpanRecorder& r) {
        return staged_row(nl, opts, &ts, r);
      });
}

}  // namespace perfbench
