#include "core/session.hpp"

#include <algorithm>

#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace scanpower {

namespace {

/// Applies FlowOptions::max_power_patterns (truncation keeps the original
/// scan-in sequence, so all structures see identical stimulus).
TestSet capped_tests(const TestSet& tests, std::size_t cap) {
  if (cap == 0 || tests.patterns.size() <= cap) return tests;
  TestSet out = tests;
  out.patterns.resize(cap);
  return out;
}

/// Implied internal values under a final control pattern: controlled
/// inputs at their constants, everything else X.
std::vector<Logic> implied_scan_values(const Netlist& nl,
                                       std::span<const Logic> pi_pattern,
                                       std::span<const Logic> mux_pattern) {
  Simulator sim(nl);
  for (std::size_t k = 0; k < nl.inputs().size(); ++k) {
    sim.set_input(nl.inputs()[k],
                  pi_pattern.empty() ? Logic::X : pi_pattern[k]);
  }
  for (std::size_t c = 0; c < nl.dffs().size(); ++c) {
    sim.set_state(nl.dffs()[c],
                  mux_pattern.empty() ? Logic::X : mux_pattern[c]);
  }
  sim.eval();
  return sim.values();
}

}  // namespace

ScanSession::ScanSession(Netlist nl, FlowOptions opts)
    : nl_(std::move(nl)), opts_(std::move(opts)),
      model_(opts_.leakage_params) {
  // Validate every engine knob up front, naming the knob -- the same
  // misconfigurations used to surface as failures deep inside the engines.
  validate_flow_options(nl_, opts_, "ScanSession");

  // Every engine built from these option copies reports into the session
  // scope. Safe: a session is neither copyable nor movable, so the
  // pointer never dangles while an engine lives.
  opts_.diag.telemetry = &telemetry_;
  opts_.tpg.fault_sim.telemetry = &telemetry_;
}

ScanSession::ScanSession(std::shared_ptr<const DesignContext> ctx,
                         FlowOptions opts)
    : ctx_(std::move(ctx)), opts_(std::move(opts)),
      model_(opts_.leakage_params) {
  SP_CHECK(ctx_ != nullptr, "ScanSession: null DesignContext");
  validate_flow_options(ctx_->netlist(), opts_, "ScanSession");
  opts_.diag.telemetry = &telemetry_;
  opts_.tpg.fault_sim.telemetry = &telemetry_;
}

ScanSession::ScanSession(std::shared_ptr<const DesignContext> ctx)
    : ScanSession(ctx, ctx == nullptr ? FlowOptions{} : ctx->options()) {}

ScanSession::~ScanSession() = default;

MetricsSnapshot ScanSession::metrics() {
  MetricsSnapshot snap = telemetry_.metrics.snapshot();
  if constexpr (kTelemetryEnabled) {
    const auto set = [&snap](CounterId id, std::uint64_t v) {
      snap.counters[static_cast<std::size_t>(id)] = v;
    };
    // Cache and pool tallies live on the owning objects as absolute
    // lifetime values; overwrite (never add) the registry slots so
    // repeated snapshots stay correct.
    if (ctx_) {
      // Shared context: cone tallies aggregate across every tenant (the
      // cache itself is design-wide state).
      set(CounterId::kConeCacheHits, ctx_->cones().hits());
      set(CounterId::kConeCacheMisses, ctx_->cones().misses());
    } else if (cones_) {
      set(CounterId::kConeCacheHits, cones_->hits());
      set(CounterId::kConeCacheMisses, cones_->misses());
    }
    set(CounterId::kGoodCacheBinds, goods_.binds());
    set(CounterId::kGoodCacheBuiltBlocks, goods_.built_blocks());
    set(CounterId::kGoodCacheBuildUs, goods_.build_us());
    set(CounterId::kGoodCacheCachedReads, goods_.cached_reads());
    set(CounterId::kGoodCacheStreamedReads, goods_.streamed_reads());
    snap.gauges[static_cast<std::size_t>(GaugeId::kGoodBlocksCached)] =
        static_cast<std::int64_t>(goods_.blocks_cached());
    if (pool_) {
      const ThreadPool::Stats ps = pool_->stats();
      set(CounterId::kPoolRuns, ps.runs);
      set(CounterId::kPoolJobs, ps.jobs);
      set(CounterId::kPoolBusyUs, ps.busy_us);
      snap.gauges[static_cast<std::size_t>(GaugeId::kPoolWorkers)] =
          pool_->size();
    }
  }
  return snap;
}

ThreadPool& ScanSession::pool() {
  if (!pool_) {
    const int t = std::max(
        {ThreadPool::resolve_threads(opts_.diag.num_threads),
         ThreadPool::resolve_threads(opts_.observability.num_threads),
         ThreadPool::resolve_threads(opts_.fill.num_threads)});
    pool_ = std::make_unique<ThreadPool>(t);
  }
  return *pool_;
}

const std::vector<Fault>& ScanSession::faults() {
  if (ctx_) return ctx_->faults();
  if (!faults_) {
    faults_ = std::make_unique<std::vector<Fault>>(collapse_faults(nl()));
  }
  return *faults_;
}

const ObservationPoints& ScanSession::points() {
  if (ctx_) return ctx_->points();
  if (!points_) points_ = std::make_unique<ObservationPoints>(nl());
  return *points_;
}

ObservationConeCache& ScanSession::cones() {
  if (ctx_) return ctx_->cones();  // fully pre-built: concurrent-safe hits
  if (!cones_) {
    cones_ = std::make_unique<ObservationConeCache>(nl(), points());
  }
  return *cones_;
}

const GateLeakageTables& ScanSession::leakage_tables() {
  if (ctx_) return ctx_->leakage_tables();
  if (!tables_) {
    tables_ = std::make_unique<GateLeakageTables>(nl(), leakage_model());
  }
  return *tables_;
}

const LeakageObservability& ScanSession::observability() {
  if (!obs_) {
    ObservabilityOptions o = opts_.observability;
    if (o.method == ObservabilityMethod::MonteCarlo && o.packed) {
      o.tables = &leakage_tables();
      o.pool = &pool();
    }
    obs_ = std::make_unique<LeakageObservability>(nl(), leakage_model(), o);
  }
  return *obs_;
}

const TestSet& ScanSession::tests() {
  // Deliberately NOT forwarded to the context: a tenant's opts_.tpg may
  // differ from the context's, and generate_tests is deterministic, so
  // building locally keeps results bit-identical to an isolated session
  // at the cost of duplicating ATPG for flow-running tenants. Tenants
  // that want the shared set use context()->tests() explicitly.
  if (!tests_) {
    tests_ = std::make_unique<TestSet>(generate_tests(nl(), opts_.tpg));
  }
  return *tests_;
}

void ScanSession::bind_patterns(std::span<const TestPattern> patterns) {
  SP_CHECK(!patterns.empty(),
           "ScanSession::bind_patterns: empty pattern set (a bound test set "
           "must contain at least one pattern)");
  if (has_patterns_ && bound_.size() == patterns.size() &&
      std::equal(patterns.begin(), patterns.end(), bound_.begin())) {
    telemetry_.metrics.add(0, CounterId::kSessionPatternBindHits);
    return;  // identical content: every pattern-keyed cache stays valid
  }
  telemetry_.metrics.add(0, CounterId::kSessionPatternBinds);
  bound_.assign(patterns.begin(), patterns.end());
  filled_ = zero_filled_patterns(bound_);
  has_patterns_ = true;
  goods_.bind(nl(), effective_patterns(), opts_.diag.block_words,
              GoodBlockCache::kDefaultMaxCachedBlocks, opts_.diag.backend);
  // Per-MisrConfig compaction states rebind themselves lazily (they
  // compare the bound content on next use).
}

void ScanSession::bind_tests() { bind_patterns(tests().patterns); }

void ScanSession::require_bound() const {
  SP_CHECK(has_patterns_,
           "ScanSession: no pattern set bound -- call bind_patterns() or "
           "bind_tests() before diagnose()/inject()");
}

void ScanSession::require_fully_specified(const char* what) const {
  SP_CHECK(filled_.empty(),
           strprintf("ScanSession: %s needs a fully specified pattern set, "
                     "but the bound set carries X bits (compacted diagnosis "
                     "X-masks them instead; for full-response flows fill the "
                     "patterns first)",
                     what));
}

Diagnoser& ScanSession::diagnoser() {
  if (!diagnoser_) {
    diagnoser_ = std::make_unique<Diagnoser>(nl(), opts_.diag, pool(), points(),
                                             cones(), goods_);
  }
  return *diagnoser_;
}

SignatureDiagnoser& ScanSession::sig_diagnoser() {
  if (!sig_diagnoser_) {
    sig_diagnoser_ = std::make_unique<SignatureDiagnoser>(
        nl(), opts_.diag, pool(), points(), cones(), goods_);
  }
  return *sig_diagnoser_;
}

ResponseCapture& ScanSession::capture() {
  if (!capture_) {
    capture_ = std::make_unique<ResponseCapture>(nl(), opts_.diag.block_words,
                                                 opts_.diag.backend);
  }
  return *capture_;
}

SignatureCapture& ScanSession::compact_state(const MisrConfig& cfg) {
  // Each entry is a self-contained SignatureCapture (own pattern copy +
  // response capture); the duplication is bounded by the handful of MISR
  // configurations a session sees. An entry builds the per-config plan and
  // expected signatures once per bound pattern set, holds the diff table
  // compacted diagnosis fills, and serves synthetic injection.
  (void)Misr(cfg);  // full MISR validation before keying on resolved_poly()
  const auto key = std::make_tuple(cfg.width, cfg.resolved_poly(), cfg.window);
  auto it = compact_.find(key);
  if (it == compact_.end()) {
    telemetry_.metrics.add(0, CounterId::kSessionCompactStateMisses);
    telemetry_.metrics.add(0, CounterId::kXMaskBuilds);
    it = compact_
             .emplace(key, std::make_unique<SignatureCapture>(
                               nl(), cfg, opts_.diag.block_words,
                               opts_.diag.backend))
             .first;
  } else {
    telemetry_.metrics.add(0, CounterId::kSessionCompactStateHits);
  }
  {
    // Covers the lazy (X-mask plan, expected signatures) build; a no-op
    // rebind costs one pattern comparison, so the counter stays honest.
    TraceSpan span(&telemetry_, "compact_state.bind", 0,
                   CounterId::kXMaskBuildUs);
    it->second->bind(bound_);  // no-op while the bound content is unchanged
  }
  return *it->second;
}

void ScanSession::validate_evidence(const FailureLog& log) {
  SP_CHECK(log.num_patterns == bound_.size(),
           strprintf("ScanSession::diagnose: failure log covers %zu patterns "
                     "but the bound set has %zu",
                     log.num_patterns, bound_.size()));
  const std::size_t num_points = points().size();
  for (const Failure& f : log.failures) {
    SP_CHECK(f.pattern < log.num_patterns,
             strprintf("ScanSession::diagnose: failure record (pattern %u, "
                       "point %u) outside the %zu-pattern log",
                       f.pattern, f.op, log.num_patterns));
    SP_CHECK(f.op < num_points,
             strprintf("ScanSession::diagnose: failure record (pattern %u, "
                       "point %u) outside the %zu-point observation space",
                       f.pattern, f.op, num_points));
  }
}

DiagnosisResult ScanSession::diagnose_full(const FailureLog& log) {
  require_bound();
  require_fully_specified("full-response diagnosis");
  validate_evidence(log);
  telemetry_.metrics.add(0, CounterId::kSessionDiagnoseFull);
  TraceSpan span(&telemetry_, "session.diagnose_full", 0);
  DiagnosisResult res = diagnoser().diagnose(effective_patterns(), faults(), log);
  SP_LOG_INFO(strprintf(
      "diagnosis[%s]: %zu failures over %zu patterns -> %zu/%zu candidates, "
      "best %s (tfsf %llu, tfsp %llu, tpsf %llu)%s%s",
      nl().name().c_str(), res.num_failures, res.num_failing_patterns,
      res.num_candidates, res.num_faults,
      res.ranked.empty() ? "<none>" : res.ranked[0].fault.to_string(nl()).c_str(),
      res.ranked.empty() ? 0ULL
                         : static_cast<unsigned long long>(res.ranked[0].tfsf),
      res.ranked.empty() ? 0ULL
                         : static_cast<unsigned long long>(res.ranked[0].tfsp),
      res.ranked.empty() ? 0ULL
                         : static_cast<unsigned long long>(res.ranked[0].tpsf),
      res.union_fallback ? ", union-pruning fallback" : "",
      res.multiplets.empty()
          ? ""
          : strprintf(", %zu suspect sets (top covers %zu/%zu failing "
                      "patterns)",
                      res.multiplets.size(), res.multiplets[0].covered,
                      res.num_failing_patterns)
                .c_str()));
  return res;
}

DiagnosisResult ScanSession::diagnose_compacted(const SignatureLog& log) {
  require_bound();
  telemetry_.metrics.add(0, CounterId::kSessionDiagnoseCompact);
  TraceSpan span(&telemetry_, "session.diagnose_compacted", 0);
  SignatureCapture& cs = compact_state(log.misr);
  DiagnosisResult res =
      sig_diagnoser().diagnose_with(effective_patterns(), faults(), log, cs);
  SP_LOG_INFO(strprintf(
      "compacted diagnosis[%s]: %zu/%zu failing windows (MISR width %d, "
      "window %d, %zu masked point-windows) -> %zu/%zu candidates, best %s "
      "(tfsf %llu, tfsp %llu, tpsf %llu)",
      nl().name().c_str(), res.num_failing_windows, res.num_windows,
      log.misr.width, log.misr.window, res.num_masked, res.num_candidates,
      res.num_faults,
      res.ranked.empty() ? "<none>" : res.ranked[0].fault.to_string(nl()).c_str(),
      res.ranked.empty() ? 0ULL
                         : static_cast<unsigned long long>(res.ranked[0].tfsf),
      res.ranked.empty() ? 0ULL
                         : static_cast<unsigned long long>(res.ranked[0].tfsp),
      res.ranked.empty() ? 0ULL
                         : static_cast<unsigned long long>(res.ranked[0].tpsf)));
  return res;
}

DiagnosisResult ScanSession::diagnose(const Evidence& evidence) {
  return std::visit(
      [&](const auto& log) -> DiagnosisResult {
        using T = std::decay_t<decltype(log)>;
        if constexpr (std::is_same_v<T, FailureLog>) {
          return diagnose_full(log);
        } else {
          return diagnose_compacted(log);
        }
      },
      evidence);
}

std::vector<DiagnosisResult> ScanSession::diagnose_batch(
    std::span<const Evidence> evidence) {
  require_bound();
  telemetry_.metrics.add(0, CounterId::kSessionBatches);
  TraceSpan span(&telemetry_, "session.diagnose_batch", 0);
  std::vector<DiagnosisResult> results(evidence.size());

  // Full-response logs are batched: prune serially, then fan the logs
  // round-robin across the worker pool (each log scored wholly within one
  // worker). Compacted logs keep their per-log pool-parallel candidate
  // sweep; their shared state (plan, expected signatures, diff table, good
  // blocks) is already cached on the session, so there is nothing left to
  // batch.
  std::vector<const FailureLog*> full;
  std::vector<std::size_t> full_at;
  for (std::size_t i = 0; i < evidence.size(); ++i) {
    if (const FailureLog* log = std::get_if<FailureLog>(&evidence[i])) {
      full.push_back(log);
      full_at.push_back(i);
    } else {
      results[i] = diagnose_compacted(std::get<SignatureLog>(evidence[i]));
    }
  }
  if (!full.empty()) {
    require_fully_specified("full-response diagnosis");
    for (const FailureLog* log : full) validate_evidence(*log);
    std::vector<DiagnosisResult> rs =
        diagnoser().diagnose_batch(effective_patterns(), faults(), full);
    for (std::size_t k = 0; k < rs.size(); ++k) {
      results[full_at[k]] = std::move(rs[k]);
    }
    SP_LOG_INFO(strprintf("diagnosis batch[%s]: %zu failure logs over %zu "
                       "patterns on %d workers",
                       nl().name().c_str(), full.size(), bound_.size(),
                       pool().size()));
  }
  return results;
}

FailureLog ScanSession::inject(const Fault& f) {
  require_bound();
  require_fully_specified("full-response injection");
  return capture().inject(effective_patterns(), f);
}

FailureLog ScanSession::inject(std::span<const Fault> faults) {
  require_bound();
  require_fully_specified("full-response injection");
  return capture().inject(effective_patterns(), faults);
}

SignatureLog ScanSession::inject_compacted(const Fault& f) {
  return inject_compacted(f, opts_.misr);
}

SignatureLog ScanSession::inject_compacted(const Fault& f,
                                           const MisrConfig& cfg) {
  require_bound();
  return compact_state(cfg).inject(bound_, f);
}

SignatureLog ScanSession::inject_compacted(std::span<const Fault> faults) {
  return inject_compacted(faults, opts_.misr);
}

SignatureLog ScanSession::inject_compacted(std::span<const Fault> faults,
                                           const MisrConfig& cfg) {
  require_bound();
  return compact_state(cfg).inject(bound_, faults);
}

FillResult ScanSession::fill(std::vector<Logic>& pi_pattern,
                             std::vector<Logic>& mux_pattern,
                             const std::vector<bool>& mux_eligible) {
  FillOptions fo = opts_.fill;
  if (fo.packed) {
    fo.tables = &leakage_tables();
    fo.pool = &pool();
  }
  return fill_dont_cares_min_leakage(nl(), leakage_model(), pi_pattern, mux_pattern,
                                     mux_eligible, fo);
}

ScanPowerResult ScanSession::power_report(const TestSet& tests,
                                          std::span<const Logic> pi_control,
                                          std::span<const Logic> mux_control) {
  return evaluate_power(nl(), capped_tests(tests, opts_.max_power_patterns),
                        pi_control, mux_control);
}

ScanPowerResult ScanSession::evaluate_power(
    const Netlist& n, const TestSet& tests, std::span<const Logic> pi_control,
    std::span<const Logic> mux_control) {
  ScanPowerEvaluator eval(n, leakage_model(), opts_.delay.caps(), opts_.power);
  const ScanPowerResult r =
      eval.evaluate(tests, pi_control, mux_control, opts_.scan);
  telemetry_.metrics.add(0, CounterId::kPowerEvalCalls);
  telemetry_.metrics.add(0, CounterId::kPowerEvalCycles, r.cycles);
  telemetry_.metrics.add(0, CounterId::kPowerEvalSweeps, r.sweeps);
  return r;
}

ScanPowerResult ScanSession::power_report() { return power_report(tests()); }

ScanPowerResult ScanSession::run_proposed(const TestSet& tests,
                                          FlowResult* details) {
  const CapacitanceModel& caps = opts_.delay.caps();

  // --- AddMUX -----------------------------------------------------------
  MuxPlan plan;
  if (opts_.insert_muxes) {
    plan = plan_muxes(nl(), opts_.delay, opts_.mux);
  } else {
    plan.multiplexed.assign(nl().dffs().size(), false);
    plan.base_critical_delay_ps = 0.0;
  }

  // --- FindControlledInputPattern ---------------------------------------
  FindPatternOptions fopts;
  fopts.observability =
      opts_.use_observability_directive ? &observability().values() : nullptr;
  fopts.justify_backtrack_limit = opts_.justify_backtrack_limit;
  fopts.telemetry = &telemetry_;
  FindPatternResult pat = find_controlled_input_pattern(nl(), plan, caps, fopts);

  // --- don't-care filling ------------------------------------------------
  FillOptions fill_opts = opts_.fill;
  fill_opts.minimize_leakage = opts_.do_min_leakage_fill;
  if (fill_opts.packed) {
    fill_opts.tables = &leakage_tables();
    fill_opts.pool = &pool();
  }
  const FillResult fill = fill_dont_cares_min_leakage(
      nl(), leakage_model(), pat.pi_pattern, pat.mux_pattern,
      plan.multiplexed, fill_opts);

  // --- pin reordering -----------------------------------------------------
  // Work on a copy: reordering is a physical rewrite of the circuit.
  Netlist tuned = nl();
  ReorderResult reorder;
  if (opts_.do_pin_reorder) {
    const std::vector<Logic> scan_vals =
        implied_scan_values(nl(), pat.pi_pattern, pat.mux_pattern);
    reorder = reorder_pins_for_leakage(tuned, leakage_model(), scan_vals);
  }

  // --- evaluation ---------------------------------------------------------
  const ScanPowerResult power =
      evaluate_power(tuned, capped_tests(tests, opts_.max_power_patterns),
                     pat.pi_pattern, pat.mux_pattern);

  if (details) {
    details->mux_plan = plan;
    details->pattern = pat;
    details->fill = fill;
    details->reorder = reorder;
  }
  return power;
}

FlowResult ScanSession::run_flow() {
  telemetry_.metrics.add(0, CounterId::kSessionFlowRuns);
  TraceSpan flow_span(&telemetry_, "session.run_flow", 0);
  FlowResult res;
  res.circuit = nl().name();
  res.stats = compute_stats(nl());

  const CapacitanceModel& caps = opts_.delay.caps();

  // Shared test set (the paper uses the same ATOM vectors for all three
  // structures; "no test vector reordering or scan cell reordering").
  const TestSet& shared_tests = tests();
  res.num_patterns = shared_tests.patterns.size();
  res.fault_coverage = shared_tests.fault_coverage();

  const TestSet eval_tests =
      capped_tests(shared_tests, opts_.max_power_patterns);

  // --- traditional scan -------------------------------------------------
  res.traditional = evaluate_power(nl(), eval_tests, {}, {});

  // --- input control [8] --------------------------------------------------
  {
    MuxPlan no_mux;
    no_mux.multiplexed.assign(nl().dffs().size(), false);
    FindPatternOptions fopts;
    fopts.observability = nullptr;  // undirected
    fopts.justify_backtrack_limit = opts_.justify_backtrack_limit;
    fopts.telemetry = &telemetry_;
    FindPatternResult pat =
        find_controlled_input_pattern(nl(), no_mux, caps, fopts);
    FillOptions fill_opts = opts_.fill;
    fill_opts.minimize_leakage = false;  // [8] targets transitions only
    if (fill_opts.packed) {
      fill_opts.tables = &leakage_tables();
      fill_opts.pool = &pool();
    }
    fill_dont_cares_min_leakage(nl(), leakage_model(), pat.pi_pattern, pat.mux_pattern,
                                no_mux.multiplexed, fill_opts);
    res.input_control = evaluate_power(nl(), eval_tests, pat.pi_pattern, {});
  }

  // --- proposed ------------------------------------------------------------
  res.proposed = run_proposed(shared_tests, &res);

  res.dyn_vs_traditional_pct = improvement_pct(
      res.traditional.dynamic_per_hz_uw, res.proposed.dynamic_per_hz_uw);
  res.stat_vs_traditional_pct =
      improvement_pct(res.traditional.static_uw, res.proposed.static_uw);
  res.dyn_vs_input_control_pct = improvement_pct(
      res.input_control.dynamic_per_hz_uw, res.proposed.dynamic_per_hz_uw);
  res.stat_vs_input_control_pct =
      improvement_pct(res.input_control.static_uw, res.proposed.static_uw);

  SP_LOG_INFO(strprintf(
      "flow[%s]: dyn %.3e -> %.3e uW/Hz (%.1f%%), stat %.2f -> %.2f uW (%.1f%%)",
      nl().name().c_str(), res.traditional.dynamic_per_hz_uw,
      res.proposed.dynamic_per_hz_uw, res.dyn_vs_traditional_pct,
      res.traditional.static_uw, res.proposed.static_uw,
      res.stat_vs_traditional_pct));
  return res;
}

}  // namespace scanpower
