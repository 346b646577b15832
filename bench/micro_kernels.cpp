// Throughput micro-benchmarks (google-benchmark) for the computational
// kernels behind every experiment: logic simulation, packed fault
// simulation, STA, leakage evaluation, observability and justification.

#include <benchmark/benchmark.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "atpg/fault_sim.hpp"
#include "atpg/packed_sim.hpp"
#include "atpg/tpg.hpp"
#include "benchgen/benchgen.hpp"
#include "compact/compact_diag.hpp"
#include "compact/misr.hpp"
#include "compact/signature_log.hpp"
#include "core/dont_care_fill.hpp"
#include "core/justify.hpp"
#include "core/session.hpp"
#include "core/work_queue.hpp"
#include "diag/diagnose.hpp"
#include "diag/noise.hpp"
#include "diag/response.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "netlist/bench_io.hpp"
#include "power/leakage_model.hpp"
#include "power/observability.hpp"
#include "power/packed_leakage.hpp"
#include "sim/simulator.hpp"
#include "techmap/techmap.hpp"
#include "timing/sta.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace {

using namespace scanpower;

// Kernel-backend axis for the backend-dispatch benchmarks: argument
// values index this table (0=scalar, 1=avx2, 2=avx512). Only
// backends available on the running host are registered, so a JSON run
// never fails on a machine without the ISA -- its rows are just absent.
constexpr SimBackend kBenchBackends[] = {SimBackend::Scalar, SimBackend::Avx2,
                                         SimBackend::Avx512};

SimBackend bench_backend(std::int64_t idx) {
  return kBenchBackends[static_cast<std::size_t>(idx)];
}

std::vector<std::int64_t> available_backend_indices() {
  std::vector<std::int64_t> v;
  for (std::int64_t i = 0; i < std::ssize(kBenchBackends); ++i) {
    if (backend_available(kBenchBackends[i])) v.push_back(i);
  }
  return v;
}

const Netlist& circuit(const std::string& name) {
  static std::map<std::string, Netlist> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, map_to_nand_nor_inv(make_iscas89_like(name))).first;
  }
  return it->second;
}

void BM_SimulatorFullEval(benchmark::State& state) {
  const Netlist& nl = circuit(state.range(0) == 0 ? "s344" : "s1423");
  Simulator sim(nl);
  Rng rng(1);
  for (auto _ : state) {
    for (GateId pi : nl.inputs()) sim.set_input(pi, from_bool(rng.next_bool()));
    for (GateId ff : nl.dffs()) sim.set_state(ff, from_bool(rng.next_bool()));
    sim.eval();
    benchmark::DoNotOptimize(sim.values().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(nl.num_gates()));
}
BENCHMARK(BM_SimulatorFullEval)->Arg(0)->Arg(1);

void BM_SimulatorIncrementalOneBit(benchmark::State& state) {
  const Netlist& nl = circuit(state.range(0) == 0 ? "s344" : "s1423");
  Simulator sim(nl);
  for (GateId pi : nl.inputs()) sim.set_input(pi, Logic::Zero);
  for (GateId ff : nl.dffs()) sim.set_state(ff, Logic::Zero);
  sim.eval();
  bool flip = false;
  for (auto _ : state) {
    sim.set_state(nl.dffs()[0], from_bool(flip));
    flip = !flip;
    sim.eval_incremental();
    benchmark::DoNotOptimize(sim.values().data());
  }
}
BENCHMARK(BM_SimulatorIncrementalOneBit)->Arg(0)->Arg(1);

void BM_PackedSim64Patterns(benchmark::State& state) {
  const Netlist& nl = circuit("s1423");
  BlockSimulator sim(nl, 1);
  Rng rng(3);
  for (auto _ : state) {
    for (GateId pi : nl.inputs()) sim.set_source_word(pi, 0, rng.next_u64());
    for (GateId ff : nl.dffs()) sim.set_source_word(ff, 0, rng.next_u64());
    sim.eval();
    benchmark::DoNotOptimize(sim.storage().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64 *
                          static_cast<int64_t>(nl.num_gates()));
}
BENCHMARK(BM_PackedSim64Patterns);

// Good-machine throughput vs block width: W*64 patterns per sweep. Args
// are (block words W, kernel backend index).
void BM_BlockSimEval(benchmark::State& state) {
  const Netlist& nl = circuit("s1423");
  const int words = static_cast<int>(state.range(0));
  BlockSimulator sim(nl, words, bench_backend(state.range(1)));
  Rng rng(3);
  for (auto _ : state) {
    for (GateId pi : nl.inputs()) {
      for (int w = 0; w < words; ++w) sim.set_source_word(pi, w, rng.next_u64());
    }
    for (GateId ff : nl.dffs()) {
      for (int w = 0; w < words; ++w) sim.set_source_word(ff, w, rng.next_u64());
    }
    sim.eval();
    benchmark::DoNotOptimize(sim.storage().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64 * words *
                          static_cast<int64_t>(nl.num_gates()));
}
BENCHMARK(BM_BlockSimEval)->Apply([](benchmark::internal::Benchmark* b) {
  for (std::int64_t be : available_backend_indices()) {
    for (std::int64_t w : {1, 2, 4, 8}) b->Args({w, be});
  }
});

void BM_FaultSim64Patterns(benchmark::State& state) {
  const Netlist& nl = circuit("s344");
  const auto faults = collapse_faults(nl);
  FaultSimulator fsim(nl);
  Rng rng(5);
  std::vector<TestPattern> pats;
  for (int i = 0; i < 64; ++i) pats.push_back(random_pattern(nl, rng));
  for (auto _ : state) {
    const FaultSimResult res = fsim.run(pats, faults);
    benchmark::DoNotOptimize(res.num_detected);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(faults.size()));
}
BENCHMARK(BM_FaultSim64Patterns);

// The acceptance kernel for the packed/parallel engine: PPSFP fault
// simulation of 256 random patterns over the full collapsed fault list of
// the s9234-like profile. Args are (block words W, worker threads, kernel
// backend index); (1, 1, scalar) is the seed engine's single-word
// single-thread configuration. Throughput is reported in fault-pattern
// pairs per second so configurations compare directly.
void BM_FaultSimS9234(benchmark::State& state) {
  const Netlist& nl = circuit("s9234");
  const auto faults = collapse_faults(nl);
  FaultSimOptions opts;
  opts.block_words = static_cast<int>(state.range(0));
  opts.num_threads = static_cast<int>(state.range(1));
  opts.backend = bench_backend(state.range(2));
  FaultSimulator fsim(nl, opts);
  Rng rng(9);
  std::vector<TestPattern> pats;
  for (int i = 0; i < 256; ++i) pats.push_back(random_pattern(nl, rng));
  for (auto _ : state) {
    const FaultSimResult res = fsim.run(pats, faults);
    benchmark::DoNotOptimize(res.num_detected);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(faults.size()) *
                          static_cast<int64_t>(pats.size()));
}
BENCHMARK(BM_FaultSimS9234)
    ->Unit(benchmark::kMillisecond)
    ->Args({1, 1, 0})   // seed configuration
    ->Args({2, 1, 0})
    ->Args({4, 1, 0})
    ->Args({8, 1, 0})
    ->Args({4, 2, 0})
    ->Args({4, 4, 0})   // acceptance configuration
    ->Apply([](benchmark::internal::Benchmark* b) {
      // Backend comparison rows at the W=4/8 single-thread shapes.
      for (std::int64_t be : available_backend_indices()) {
        if (be == 0) continue;  // scalar rows registered above
        b->Args({4, 1, be})->Args({8, 1, be});
      }
    });

// The diagnosis acceptance kernel: one full diagnose() call -- fanin-cone
// back-trace pruning plus packed scoring of every surviving candidate --
// against a synthetic single-fault failure log on the s9234-like profile
// (256 patterns, full collapsed fault list). Args are (block words W,
// worker threads, scoring early-exit, telemetry); rankings are
// bit-identical across every configuration at fixed early-exit setting,
// so throughput comparisons are apples-to-apples. The /4/1/0/0 vs
// /4/1/1/0 delta is the early-exit win recorded in BENCH_diag.json; the
// /4/1/1/0 vs /4/1/1/1 and /4/4/1/0 vs /4/4/1/1 deltas are the telemetry
// overhead bound (< 2%) recorded in BENCH_telemetry.json. The telemetry
// runs attach a live registry AND an enabled trace recorder (cleared each
// iteration so the span buffer cannot grow without bound).
void BM_DiagnosisS9234(benchmark::State& state) {
  const Netlist& nl = circuit("s9234");
  const auto faults = collapse_faults(nl);
  Rng rng(9);
  std::vector<TestPattern> pats;
  for (int i = 0; i < 256; ++i) pats.push_back(random_pattern(nl, rng));

  // Deterministic device-under-diagnosis: the first detected fault past
  // the middle of the collapsed list.
  FaultSimulator fsim(nl, FaultSimOptions{.block_words = 4});
  const FaultSimResult det = fsim.run(pats, faults);
  std::size_t injected = faults.size();
  for (std::size_t fi = faults.size() / 2; fi < faults.size(); ++fi) {
    if (det.detected[fi]) {
      injected = fi;
      break;
    }
  }
  SP_CHECK(injected < faults.size(),
           "BM_DiagnosisS9234: no detected fault in the second half");
  ResponseCapture capture(nl, 4);
  const FailureLog log = capture.inject(pats, faults[injected]);

  DiagnosisOptions opts;
  opts.block_words = static_cast<int>(state.range(0));
  opts.num_threads = static_cast<int>(state.range(1));
  opts.score_early_exit = state.range(2) != 0;
  const bool with_telemetry = state.range(3) != 0;
  Telemetry telem;
  if (with_telemetry) {
    telem.trace.set_enabled(true);
    opts.telemetry = &telem;
  }
  Diagnoser diag(nl, opts);
  for (auto _ : state) {
    const DiagnosisResult res = diag.diagnose(pats, faults, log);
    benchmark::DoNotOptimize(res.ranked.data());
    if (with_telemetry) telem.trace.clear();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(faults.size()));
}
BENCHMARK(BM_DiagnosisS9234)
    ->Unit(benchmark::kMillisecond)
    ->Args({1, 1, 1, 0})
    ->Args({4, 1, 0, 0})   // scoring early-exit disabled (baseline)
    ->Args({4, 1, 1, 0})
    ->Args({4, 1, 1, 1})   // telemetry-on counterpart of /4/1/1/0
    ->Args({4, 4, 1, 0})   // acceptance configuration
    ->Args({4, 4, 1, 1});  // telemetry-on counterpart of /4/4/1/0

// Noisy-tester variant of BM_DiagnosisS9234: the same injected fault,
// but the failure log is corrupted by the seeded NoiseModel (5% record
// drops, 5% spurious flips) and diagnosed with a matching
// noise_tolerance. Args are (block words W, worker threads, suspect-set
// recovery on/off); the /4/4/0 vs /4/4/1 delta is the cost of the
// multi-fault union-cover pass on a noisy single-fault log, recorded in
// BENCH_noise.json.
void BM_DiagnosisS9234Noisy(benchmark::State& state) {
  const Netlist& nl = circuit("s9234");
  const auto faults = collapse_faults(nl);
  Rng rng(9);
  std::vector<TestPattern> pats;
  for (int i = 0; i < 256; ++i) pats.push_back(random_pattern(nl, rng));

  // The same deterministic device-under-diagnosis as BM_DiagnosisS9234.
  FaultSimulator fsim(nl, FaultSimOptions{.block_words = 4});
  const FaultSimResult det = fsim.run(pats, faults);
  std::size_t injected = faults.size();
  for (std::size_t fi = faults.size() / 2; fi < faults.size(); ++fi) {
    if (det.detected[fi]) {
      injected = fi;
      break;
    }
  }
  SP_CHECK(injected < faults.size(),
           "BM_DiagnosisS9234Noisy: no detected fault in the second half");
  ResponseCapture capture(nl, 4);
  FailureLog log = capture.inject(pats, faults[injected]);
  const NoiseModel noise(NoiseOptions{.drop_rate = 0.05, .flip_rate = 0.05});
  NoiseStats stats;
  log = noise.corrupt(log, capture.points().size(), &stats);

  DiagnosisOptions opts;
  opts.block_words = static_cast<int>(state.range(0));
  opts.num_threads = static_cast<int>(state.range(1));
  opts.multiplets = state.range(2) != 0;
  opts.noise_tolerance = stats.dropped + stats.flipped + 2;
  Diagnoser diag(nl, opts);
  for (auto _ : state) {
    const DiagnosisResult res = diag.diagnose(pats, faults, log);
    benchmark::DoNotOptimize(res.ranked.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(faults.size()));
}
BENCHMARK(BM_DiagnosisS9234Noisy)
    ->Unit(benchmark::kMillisecond)
    ->Args({1, 1, 1})
    ->Args({4, 4, 0})   // suspect-set recovery disabled (baseline)
    ->Args({4, 4, 1});  // acceptance configuration

// MISR time-compaction of the s9234-like profile's full 256-pattern
// response matrix (default width-32 register, 32-pattern windows). Arg 0
// is the scalar reference register (one response bit per step), args
// 1/4/8 the bit-sliced packed engine at that block width. Throughput in
// response bits compacted per second.
void BM_MisrCompact(benchmark::State& state) {
  const Netlist& nl = circuit("s9234");
  Rng rng(9);
  std::vector<TestPattern> pats;
  for (int i = 0; i < 256; ++i) pats.push_back(random_pattern(nl, rng));
  ResponseCapture cap(nl, 4);
  const ResponseMatrix responses = cap.capture_good(pats);
  const MisrConfig cfg;
  if (state.range(0) == 0) {
    const Misr misr(cfg);
    for (auto _ : state) {
      benchmark::DoNotOptimize(misr.compact_scalar(responses));
    }
  } else {
    const MisrCompactor compactor(cfg, static_cast<int>(state.range(0)));
    std::vector<std::uint64_t> sigs(compactor.num_windows(pats.size()));
    for (auto _ : state) {
      compactor.compact(responses, nullptr, sigs);
      benchmark::DoNotOptimize(sigs.data());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(responses.num_points) *
                          static_cast<int64_t>(responses.num_patterns));
}
BENCHMARK(BM_MisrCompact)->Unit(benchmark::kMillisecond)
    ->Arg(0)->Arg(1)->Arg(4)->Arg(8);

// Compacted-diagnosis variant of BM_DiagnosisS9234: the MISR signature
// log of the same injected fault (default width/window), diagnosed
// against the full collapsed list. Args are (block words W, worker
// threads, warm):
//  - warm = 0: one standalone SignatureDiagnoser::diagnose(), which
//    builds the X-mask plan, expected signatures and diff table per call
//    and sweeps every candidate;
//  - warm = 1: ScanSession::diagnose() on a session where one earlier
//    signature log (another fault, same MISR configuration) has filled
//    the diff table, so the log reads rows instead of sweeping.
// Rankings are bit-identical across configurations and legs.
void BM_DiagnosisS9234Compact(benchmark::State& state) {
  const Netlist& nl = circuit("s9234");
  const auto faults = collapse_faults(nl);
  Rng rng(9);
  std::vector<TestPattern> pats;
  for (int i = 0; i < 256; ++i) pats.push_back(random_pattern(nl, rng));

  // The same deterministic device-under-diagnosis as BM_DiagnosisS9234.
  FaultSimulator fsim(nl, FaultSimOptions{.block_words = 4});
  const FaultSimResult det = fsim.run(pats, faults);
  std::size_t injected = faults.size();
  for (std::size_t fi = faults.size() / 2; fi < faults.size(); ++fi) {
    if (det.detected[fi]) {
      injected = fi;
      break;
    }
  }
  SP_CHECK(injected < faults.size(),
           "BM_DiagnosisS9234Compact: no detected fault in the second half");
  SignatureCapture capture(nl, MisrConfig{}, 4);
  const SignatureLog log = capture.inject(pats, faults[injected]);

  DiagnosisOptions opts;
  opts.block_words = static_cast<int>(state.range(0));
  opts.num_threads = static_cast<int>(state.range(1));
  if (state.range(2) == 0) {
    SignatureDiagnoser diag(nl, opts);
    for (auto _ : state) {
      const DiagnosisResult res = diag.diagnose(pats, faults, log);
      benchmark::DoNotOptimize(res.ranked.data());
    }
  } else {
    FlowOptions fopts;
    fopts.diag = opts;
    ScanSession session(nl, fopts);
    session.bind_patterns(pats);
    std::size_t earlier = injected + 1;
    while (earlier < faults.size() && !det.detected[earlier]) ++earlier;
    SP_CHECK(earlier < faults.size(),
             "BM_DiagnosisS9234Compact: no second detected fault");
    benchmark::DoNotOptimize(
        session.diagnose(Evidence(capture.inject(pats, faults[earlier]))));
    const Evidence evidence(log);
    for (auto _ : state) {
      const DiagnosisResult res = session.diagnose(evidence);
      benchmark::DoNotOptimize(res.ranked.data());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(faults.size()));
}
BENCHMARK(BM_DiagnosisS9234Compact)
    ->Unit(benchmark::kMillisecond)
    ->Args({1, 1, 0})
    ->Args({4, 1, 0})
    ->Args({4, 4, 0})
    ->Args({4, 1, 1})
    ->Args({4, 4, 1});

// The service-API acceptance kernel: 8 independent single-fault failure
// logs against the s9234-like profile (256 patterns, full collapsed
// list), diagnosed cold vs warm. Args are (warm session, worker threads):
//  - warm = 0: the stateless per-call path -- every log constructs a
//    throwaway ScanSession, paying the full shared-state build (netlist
//    copy, collapsed fault list, observation points + cones, good-machine
//    block cache, worker pool) before its diagnosis, which is what each
//    separate diag_cli-style invocation costs.
//  - warm = 1: one long-lived session diagnoses all 8 logs through
//    diagnose_batch(); the shared state was built once outside the loop,
//    logs fan round-robin across the session pool.
// Results are bit-identical between the two paths (guarded by
// tests/test_session.cpp); the warm/cold per-log time ratio is the
// amortization headline recorded in BENCH_session.json.
void BM_DiagnosisS9234Batch(benchmark::State& state) {
  const Netlist& nl = circuit("s9234");
  const bool warm = state.range(0) != 0;
  Rng rng(9);
  std::vector<TestPattern> pats;
  for (int i = 0; i < 256; ++i) pats.push_back(random_pattern(nl, rng));

  FlowOptions fopts;
  fopts.diag.block_words = 4;
  fopts.diag.num_threads = static_cast<int>(state.range(1));

  // 8 deterministic devices-under-diagnosis: detected collapsed faults,
  // evenly spread over the fault list (an undetected fault's empty log
  // would skip cone pruning and distort the per-log cost).
  const auto faults = collapse_faults(nl);
  FaultSimulator fsim(nl, FaultSimOptions{.block_words = 4});
  const FaultSimResult det = fsim.run(pats, faults);
  ScanSession session(nl, fopts);
  session.bind_patterns(pats);
  std::vector<Evidence> evidence;
  std::size_t next = 0;  // never re-pick a fault: 8 *distinct* logs
  for (std::size_t fi = 0; fi < faults.size() && evidence.size() < 8;
       fi += faults.size() / 11 + 1) {
    std::size_t pick = std::max(fi, next);
    while (pick < faults.size() && !det.detected[pick]) ++pick;
    if (pick >= faults.size()) break;
    next = pick + 1;
    evidence.push_back(session.inject(faults[pick]));
  }
  SP_CHECK(evidence.size() == 8, "BM_DiagnosisS9234Batch: need 8 logs");

  if (warm) {
    // Populate the lazy caches once so the loop measures steady state.
    benchmark::DoNotOptimize(session.diagnose_batch(evidence));
    for (auto _ : state) {
      const std::vector<DiagnosisResult> rs = session.diagnose_batch(evidence);
      benchmark::DoNotOptimize(rs.data());
    }
  } else {
    for (auto _ : state) {
      for (const Evidence& ev : evidence) {
        ScanSession cold(nl, fopts);
        cold.bind_patterns(pats);
        const DiagnosisResult r = cold.diagnose(ev);
        benchmark::DoNotOptimize(r.ranked.data());
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(evidence.size()));
}
BENCHMARK(BM_DiagnosisS9234Batch)
    ->Unit(benchmark::kMillisecond)
    ->Args({0, 1})   // cold per-call baseline
    ->Args({1, 1})   // warm session (acceptance comparison at T=1)
    ->Args({0, 4})
    ->Args({1, 4});

void BM_StaticTimingAnalysis(benchmark::State& state) {
  const Netlist& nl = circuit("s1423");
  const DelayModel model;
  for (auto _ : state) {
    TimingAnalysis sta(nl, model);
    benchmark::DoNotOptimize(sta.critical_delay_ps());
  }
}
BENCHMARK(BM_StaticTimingAnalysis);

void BM_CircuitLeakage(benchmark::State& state) {
  const Netlist& nl = circuit("s1423");
  const LeakageModel model;
  Simulator sim(nl);
  Rng rng(7);
  for (GateId pi : nl.inputs()) sim.set_input(pi, from_bool(rng.next_bool()));
  for (GateId ff : nl.dffs()) sim.set_state(ff, from_bool(rng.next_bool()));
  sim.eval();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.circuit_leakage_na(nl, sim.values()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(nl.num_gates()));
}
BENCHMARK(BM_CircuitLeakage);

// Leakage evaluation of 256 random fully specified vectors on the
// s9234-like profile: simulate + per-vector circuit leakage. Arg 0 is the
// scalar stack (one Simulator pass + circuit_leakage_na walk per vector),
// arg 1 the packed stack (one BlockSimulator sweep + per-lane table
// aggregation) with arg 2 the kernel backend index and W = 4. Throughput
// in gate-vector pairs per second; one iteration evaluates one lane
// block.
void BM_LeakageEval(benchmark::State& state) {
  const Netlist& nl = circuit("s9234");
  const LeakageModel model;
  const bool packed = state.range(0) != 0;
  constexpr int kVectors = 256;
  Rng rng(7);
  std::int64_t vectors = kVectors;
  if (packed) {
    const SimBackend backend = bench_backend(state.range(1));
    constexpr int words = 4;
    const GateLeakageTables tables(nl, model);
    const PackedLeakageEvaluator leval(nl, tables, backend);
    BlockSimulator sim(nl, words, backend);
    std::vector<double> leak(sim.lanes());
    vectors = static_cast<std::int64_t>(sim.lanes());
    for (auto _ : state) {
      for (GateId pi : nl.inputs()) {
        for (int w = 0; w < words; ++w) {
          sim.set_source_word(pi, w, rng.next_u64());
        }
      }
      for (GateId ff : nl.dffs()) {
        for (int w = 0; w < words; ++w) {
          sim.set_source_word(ff, w, rng.next_u64());
        }
      }
      sim.eval();
      leval.eval(sim, leak);
      benchmark::DoNotOptimize(leak.data());
    }
  } else {
    Simulator sim(nl);
    for (auto _ : state) {
      double total = 0.0;
      for (int v = 0; v < kVectors; ++v) {
        for (GateId pi : nl.inputs()) {
          sim.set_input(pi, from_bool(rng.next_bool()));
        }
        for (GateId ff : nl.dffs()) {
          sim.set_state(ff, from_bool(rng.next_bool()));
        }
        sim.eval_incremental();
        total += model.circuit_leakage_na(nl, sim.values());
      }
      benchmark::DoNotOptimize(total);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * vectors *
                          static_cast<int64_t>(nl.num_gates()));
}
BENCHMARK(BM_LeakageEval)
    ->Unit(benchmark::kMillisecond)
    ->Args({0, 0})
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (std::int64_t be : available_backend_indices()) b->Args({1, be});
    });

// The power-stack acceptance kernel: Monte-Carlo leakage observability of
// the s9234-like profile, 256 samples. Args are (packed engine, block
// words W, worker threads, kernel backend index); (0, _, _, _) is the
// scalar per-sample baseline, (1, 4, 1, scalar) the single-thread
// acceptance configuration (>= 4x required). Packed results are
// bit-identical across thread counts and backends at fixed W.
void BM_ObservabilityMC(benchmark::State& state) {
  const Netlist& nl = circuit("s9234");
  const LeakageModel model;
  ObservabilityOptions opts;
  opts.samples = 256;
  opts.packed = state.range(0) != 0;
  opts.block_words = static_cast<int>(state.range(1));
  opts.num_threads = static_cast<int>(state.range(2));
  opts.backend = bench_backend(state.range(3));
  for (auto _ : state) {
    LeakageObservability obs(nl, model, opts);
    benchmark::DoNotOptimize(obs.values().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          opts.samples * static_cast<int64_t>(nl.num_gates()));
}
BENCHMARK(BM_ObservabilityMC)
    ->Unit(benchmark::kMillisecond)
    ->Args({0, 1, 1, 0})   // scalar per-sample baseline
    ->Args({1, 1, 1, 0})
    ->Args({1, 4, 1, 0})   // acceptance configuration
    ->Args({1, 4, 4, 0})
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (std::int64_t be : available_backend_indices()) {
        if (be == 0) continue;  // scalar rows registered above
        b->Args({1, 4, 1, be});
      }
    });

// Don't-care fill of an all-X pattern on the s9234-like profile (64
// candidate fills, every second scan cell multiplexed). Arg 0 scores
// candidates with the scalar 3-valued stack, arg 1 with the ternary
// packed engine; both pick the same fill.
void BM_DontCareFill(benchmark::State& state) {
  const Netlist& nl = circuit("s9234");
  const LeakageModel model;
  FillOptions opts;
  opts.packed = state.range(0) != 0;
  std::vector<bool> eligible(nl.dffs().size());
  for (std::size_t i = 0; i < eligible.size(); ++i) eligible[i] = i % 2 == 0;
  for (auto _ : state) {
    std::vector<Logic> pi(nl.inputs().size(), Logic::X);
    std::vector<Logic> mux(nl.dffs().size(), Logic::X);
    const FillResult res =
        fill_dont_cares_min_leakage(nl, model, pi, mux, eligible, opts);
    benchmark::DoNotOptimize(res.best_leakage_na);
  }
}
BENCHMARK(BM_DontCareFill)->Unit(benchmark::kMillisecond)->Arg(0)->Arg(1);

void BM_Justify(benchmark::State& state) {
  const Netlist& nl = circuit("s344");
  std::vector<bool> controllable(nl.num_gates(), false);
  for (GateId pi : nl.inputs()) controllable[pi] = true;
  for (GateId ff : nl.dffs()) controllable[ff] = true;
  // Justify deep internal lines round-robin.
  std::vector<GateId> targets;
  for (GateId id : nl.topo_order()) {
    if (nl.level(id) >= nl.depth() / 2) targets.push_back(id);
  }
  std::size_t k = 0;
  for (auto _ : state) {
    Justifier j(nl, controllable);
    const GateId t = targets[k++ % targets.size()];
    benchmark::DoNotOptimize(j.justify(t, true));
  }
}
BENCHMARK(BM_Justify);

// Full ATPG, single-threaded. Arg 0 is s510, the PODEM-heavy profile of
// the flow_atpg workload (over half its faults are proven untestable);
// arg 1 is s641, where PODEM still aborts faults at its 4000-backtrack
// limit. The label carries the untestable and aborted counts.
void BM_TestGeneration(benchmark::State& state) {
  const Netlist& nl = circuit(state.range(0) == 0 ? "s510" : "s641");
  TpgOptions opts;
  opts.fault_sim.block_words = 4;
  opts.fault_sim.num_threads = 1;
  TestSet ts;
  for (auto _ : state) {
    ts = generate_tests(nl, opts);
    benchmark::DoNotOptimize(ts.patterns.size());
  }
  state.SetLabel(nl.name() + " untestable=" +
                 std::to_string(ts.untestable_faults) +
                 " aborted=" + std::to_string(ts.aborted_faults));
}
BENCHMARK(BM_TestGeneration)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// One scan-power column on the s5378-like profile with 16 seeded random
// patterns, evaluator construction included (the flow builds one per
// column). Arg 0 is the traditional-scan column; arg 1 the PI + mux
// controlled column (random PI constants, every second cell multiplexed).
// Items are observed shift cycles.
void BM_ScanPowerEval(benchmark::State& state) {
  const Netlist& nl = circuit("s5378");
  const LeakageModel model;
  const CapacitanceModel caps;
  Rng rng(16);
  TestSet ts;
  for (int i = 0; i < 16; ++i) ts.patterns.push_back(random_pattern(nl, rng));
  std::vector<Logic> pi;
  std::vector<Logic> mux;
  if (state.range(0) != 0) {
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      pi.push_back(from_bool(rng.next_bool()));
    }
    for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
      mux.push_back(i % 2 == 0 ? from_bool(rng.next_bool()) : Logic::X);
    }
  }
  std::size_t cycles = 0;
  for (auto _ : state) {
    ScanPowerEvaluator eval(nl, model, caps);
    const ScanPowerResult r = eval.evaluate(ts, pi, mux);
    cycles = r.cycles;
    benchmark::DoNotOptimize(r.dynamic_per_hz_uw);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(cycles));
}
BENCHMARK(BM_ScanPowerEval)->Unit(benchmark::kMillisecond)->Arg(0)->Arg(1);

// Saturation benchmark for the diagnosis service stack: N client threads
// hammer M designs with failure logs, closed-loop (one outstanding
// request per client). Args are (warm, clients, designs):
//  - warm = 1: requests flow through one DiagnosisQueue whose designs
//    were open()ed up front -- shared DesignContexts out of the
//    SessionPool, queued logs coalesced per design into batched
//    64-candidate rounds.
//  - warm = 0: the cold per-call path -- every request constructs a
//    throwaway ScanSession (full design-keyed build) before diagnosing,
//    which is what per-invocation CLI calls cost.
// Engine knobs are pinned at T=4 / W=4 for both paths (the acceptance
// comparison in BENCH_server.json). Reported: logs/sec (items) plus
// p50/p99 per-request latency in ms. Results are bit-identical between
// the paths (guarded by tests/test_session_pool.cpp).
void BM_DiagServer(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  const int clients = static_cast<int>(state.range(1));
  const int ndesigns = static_cast<int>(state.range(2));
  static const char* kDesigns[] = {"s713", "s1423"};

  FlowOptions fopts;
  fopts.diag.block_words = 4;
  fopts.diag.num_threads = 4;

  // Per design: 96 random patterns and 8 distinct detected-fault logs.
  struct Dut {
    const Netlist* nl;
    std::vector<TestPattern> pats;
    std::vector<Evidence> evs;
  };
  std::vector<Dut> duts;
  for (int d = 0; d < ndesigns; ++d) {
    Dut dut;
    dut.nl = &circuit(kDesigns[d]);
    Rng rng(17 + d);
    for (int i = 0; i < 96; ++i) {
      dut.pats.push_back(random_pattern(*dut.nl, rng));
    }
    const auto faults = collapse_faults(*dut.nl);
    FaultSimulator fsim(*dut.nl, FaultSimOptions{.block_words = 4});
    const FaultSimResult det = fsim.run(dut.pats, faults);
    ScanSession inj(*dut.nl, fopts);
    inj.bind_patterns(dut.pats);
    std::size_t next = 0;
    for (std::size_t fi = 0; fi < faults.size() && dut.evs.size() < 8;
         fi += faults.size() / 11 + 1) {
      std::size_t pick = std::max(fi, next);
      while (pick < faults.size() && !det.detected[pick]) ++pick;
      if (pick >= faults.size()) break;
      next = pick + 1;
      dut.evs.push_back(inj.inject(faults[pick]));
    }
    SP_CHECK(dut.evs.size() == 8, "BM_DiagServer: need 8 logs per design");
    duts.push_back(std::move(dut));
  }

  // The queue (and its contexts) is service steady state: built once,
  // outside the measured loop, exactly like a long-running diag_server.
  Telemetry telem;
  DiagnosisQueue::Options qo;
  qo.pool_capacity = static_cast<std::size_t>(ndesigns);
  DiagnosisQueue queue(qo, &telem);
  std::vector<DiagnosisQueue::DesignKey> keys;
  if (warm) {
    for (const Dut& dut : duts) {
      keys.push_back(queue.open(*dut.nl, fopts, dut.pats));
    }
    queue.submit(keys[0], duts[0].evs[0]).get();  // populate lazy caches
  }

  constexpr int kPerClient = 8;  // requests per client per iteration
  std::mutex lat_mu;
  std::vector<double> lat_ms;
  for (auto _ : state) {
    std::vector<std::thread> workers;
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        std::vector<double> local;
        local.reserve(kPerClient);
        for (int i = 0; i < kPerClient; ++i) {
          const Dut& dut = duts[static_cast<std::size_t>(c + i) % duts.size()];
          const Evidence& ev = dut.evs[static_cast<std::size_t>(i) %
                                       dut.evs.size()];
          const auto t0 = std::chrono::steady_clock::now();
          if (warm) {
            std::future<DiagnosisResult> f = queue.submit(
                keys[static_cast<std::size_t>(c + i) % keys.size()], ev);
            benchmark::DoNotOptimize(f.get().num_candidates);
          } else {
            ScanSession cold(*dut.nl, fopts);
            cold.bind_patterns(dut.pats);
            benchmark::DoNotOptimize(cold.diagnose(ev).num_candidates);
          }
          local.push_back(
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
        }
        std::lock_guard<std::mutex> lock(lat_mu);
        lat_ms.insert(lat_ms.end(), local.begin(), local.end());
      });
    }
    for (std::thread& w : workers) w.join();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          clients * kPerClient);
  std::sort(lat_ms.begin(), lat_ms.end());
  if (!lat_ms.empty()) {
    const auto pct = [&](double p) {
      const std::size_t i = static_cast<std::size_t>(
          p * static_cast<double>(lat_ms.size() - 1));
      return lat_ms[i];
    };
    state.counters["p50_ms"] = pct(0.50);
    state.counters["p99_ms"] = pct(0.99);
  }
}
BENCHMARK(BM_DiagServer)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Args({0, 4, 1})   // cold per-call baseline, 4 clients, 1 design
    ->Args({1, 4, 1})   // warm queue (acceptance comparison)
    ->Args({0, 4, 2})
    ->Args({1, 4, 2})
    ->Args({1, 1, 1})   // no concurrency: queue overhead floor
    ->Args({1, 8, 2});  // oversubscribed saturation

// The same closed-loop saturation through the full network stack: N
// loopback DiagClients drive a NetServer whose queue/engine knobs match
// BM_DiagServer warm (T=4 / W=4, s713, 96 patterns, 8 detected-fault
// logs submitted as inject-index commands). Args are
// (clients, max_pending):
//  - max_pending = 0: unbounded queue. items/sec here over
//    BM_DiagServer/1/4/1 warm is the TCP transport tax (framing + two
//    socket hops per request) -- the BENCH_net.json acceptance wants
//    >= 0.8x.
//  - max_pending > 0: bounded queue with the Reject policy. Queue depth
//    cannot exceed the bound by construction (submit throws past it);
//    the "rejects" counter is how many overload frames the flood drew,
//    each absorbed by the client's jittered exponential backoff -- every
//    request still completes.
// Reported: requests/sec (items), p50/p99 per-request latency (submit +
// flush round trip) and the cumulative overload rejects.
void BM_DiagServerTcp(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const std::size_t max_pending = static_cast<std::size_t>(state.range(1));

  // The server loads the design by path; the netlist name is the file
  // stem, so the profile is written as <tmpdir>/s713.bench.
  const std::string dir =
      "/tmp/bm_diag_server_tcp_" + std::to_string(getpid());
  (void)mkdir(dir.c_str(), 0755);
  const std::string bench_path = dir + "/s713.bench";
  {
    std::ofstream f(bench_path);
    write_bench(f, circuit("s713"));
  }
  constexpr std::size_t kPatterns = 96;
  constexpr std::uint64_t kSeed = 17;

  // The same 8 detected faults BM_DiagServer injects, as indices the
  // wire commands can name.
  const Netlist& nl = circuit("s713");
  Rng rng(kSeed);
  std::vector<TestPattern> pats;
  for (std::size_t i = 0; i < kPatterns; ++i) {
    pats.push_back(random_pattern(nl, rng));
  }
  const auto faults = collapse_faults(nl);
  FaultSimulator fsim(nl, FaultSimOptions{.block_words = 4});
  const FaultSimResult det = fsim.run(pats, faults);
  std::vector<std::size_t> idx;
  std::size_t next = 0;
  for (std::size_t fi = 0; fi < faults.size() && idx.size() < 8;
       fi += faults.size() / 11 + 1) {
    std::size_t pick = std::max(fi, next);
    while (pick < faults.size() && !det.detected[pick]) ++pick;
    if (pick >= faults.size()) break;
    next = pick + 1;
    idx.push_back(pick);
  }
  SP_CHECK(idx.size() == 8, "BM_DiagServerTcp: need 8 detected faults");

  FlowOptions fopts;
  fopts.diag.block_words = 4;
  fopts.diag.num_threads = 4;

  Telemetry telem;
  DiagnosisQueue::Options qo;
  qo.pool_capacity = 1;
  qo.max_pending = max_pending;
  if (max_pending > 0) qo.overload = DiagnosisQueue::OverloadPolicy::Reject;
  qo.retry_hint_ms = 1;
  DiagnosisQueue queue(qo, &telem);
  net::NetServer::Options nopts;
  nopts.service.flow = fopts;
  net::NetServer server(queue, &telem, nopts);

  // Steady state built outside the measured loop: every client is
  // connected with the design registered (identical patterns, so the
  // later opens are no-ops) and the engine caches are hot.
  std::vector<std::unique_ptr<net::DiagClient>> conns;
  for (int c = 0; c < clients; ++c) {
    net::DiagClient::Options copts;
    copts.seed = 0xbacc0ff + static_cast<std::uint64_t>(c);
    copts.backoff_base_ms = 1;
    copts.backoff_max_ms = 50;
    copts.max_retries = 10'000;
    conns.push_back(std::make_unique<net::DiagClient>(
        "127.0.0.1", server.port(), copts));
    conns.back()->design(bench_path);
    conns.back()->patterns(kPatterns, kSeed);
  }
  conns[0]->submit("inject-index " + std::to_string(idx[0]));
  conns[0]->flush();  // populate lazy caches

  constexpr int kPerClient = 8;  // requests per client per iteration
  std::mutex lat_mu;
  std::vector<double> lat_ms;
  for (auto _ : state) {
    std::vector<std::thread> workers;
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        std::vector<double> local;
        local.reserve(kPerClient);
        for (int i = 0; i < kPerClient; ++i) {
          const std::size_t f = idx[static_cast<std::size_t>(c + i) %
                                    idx.size()];
          const auto t0 = std::chrono::steady_clock::now();
          conns[static_cast<std::size_t>(c)]->submit("inject-index " +
                                                     std::to_string(f));
          benchmark::DoNotOptimize(
              conns[static_cast<std::size_t>(c)]->flush().size());
          local.push_back(
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
        }
        std::lock_guard<std::mutex> lock(lat_mu);
        lat_ms.insert(lat_ms.end(), local.begin(), local.end());
      });
    }
    for (std::thread& w : workers) w.join();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          clients * kPerClient);
  std::uint64_t rejects = 0;
  for (auto& c : conns) {
    rejects += c->overload_retries();
    c->quit();
  }
  state.counters["rejects"] = static_cast<double>(rejects);
  state.counters["queue_rejected"] = static_cast<double>(
      telem.metrics.snapshot().counter(CounterId::kQueueRejected));
  std::sort(lat_ms.begin(), lat_ms.end());
  if (!lat_ms.empty()) {
    const auto pct = [&](double p) {
      const std::size_t i = static_cast<std::size_t>(
          p * static_cast<double>(lat_ms.size() - 1));
      return lat_ms[i];
    };
    state.counters["p50_ms"] = pct(0.50);
    state.counters["p99_ms"] = pct(0.99);
  }
  conns.clear();
  server.shutdown();
  std::remove(bench_path.c_str());
  rmdir(dir.c_str());
}
BENCHMARK(BM_DiagServerTcp)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Args({1, 0})   // single client: transport overhead floor
    ->Args({4, 0})   // warm 4-client throughput (vs BM_DiagServer/1/4/1)
    ->Args({4, 2});  // bounded flood: Reject + client backoff

}  // namespace

BENCHMARK_MAIN();
