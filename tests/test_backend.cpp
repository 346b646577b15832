// Backend cross-check suite: the house determinism rule applied to the
// kernel-backend axis. Every backend available on this host must produce
// results bit-identical to the scalar reference engine -- fault-sim
// detections, diagnosis rankings (and suspect sets), observability sums,
// fill choices and the scan-power pass's per-lane sums -- at every
// (block width, thread count) in the matrix, on the benchgen ISCAS89-like
// profiles and on the degenerate netlist shapes from test_degenerate.cpp.
//
// Backends that the host cannot run (AVX TUs compiled out, CPU without
// the features) are skipped here and covered by the CI matrix on hosts
// that do have them. On a host with neither AVX2 nor AVX-512 the
// cross-check legs have nothing to compare; the selection-contract tests
// still run.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/packed_sim.hpp"
#include "atpg/sim_backend.hpp"
#include "atpg/sim_kernels.hpp"
#include "benchgen/benchgen.hpp"
#include "core/dont_care_fill.hpp"
#include "diag/diagnose.hpp"
#include "diag/response.hpp"
#include "netlist/builder.hpp"
#include "power/leakage_model.hpp"
#include "power/observability.hpp"
#include "power/packed_leakage.hpp"
#include "techmap/techmap.hpp"
#include "timing/delay_model.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace scanpower {
namespace {

// ---------- matrix helpers --------------------------------------------------

/// Non-scalar backends runnable on this host (scalar is the reference).
std::vector<SimBackend> backends_under_test() {
  std::vector<SimBackend> v;
  if (backend_available(SimBackend::Avx2)) v.push_back(SimBackend::Avx2);
  if (backend_available(SimBackend::Avx512)) v.push_back(SimBackend::Avx512);
  return v;
}

/// The (W, T) matrix every backend runs: W in {1, 4, 8} crossed with
/// T in {1, 4}. W = 1 takes the generic bodies, W = 4 one 256-bit vector
/// per block, and W = 8 avx2's two-register and avx512's one-register
/// 512-bit paths.
std::vector<std::pair<int, int>> matrix() {
  std::vector<std::pair<int, int>> m;
  for (int w : {1, 4, 8}) {
    for (int t : {1, 4}) m.emplace_back(w, t);
  }
  return m;
}

std::vector<TestPattern> random_patterns(const Netlist& nl, int n,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TestPattern> pats;
  pats.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pats.push_back(random_pattern(nl, rng));
  return pats;
}

// Degenerate shapes (same as test_degenerate.cpp): a single gate, an
// output wired straight to an input, and a DFF-only shift path.
Netlist single_gate_netlist() {
  NetlistBuilder b("one_gate");
  b.add_input("a");
  b.add_gate(GateType::Not, "y", {"a"});
  b.add_output("y");
  return b.link();
}

Netlist po_from_pi_netlist() {
  NetlistBuilder b("wire");
  b.add_input("a");
  b.add_input("b");
  b.add_gate(GateType::Not, "y", {"b"});
  b.add_output("a");
  b.add_output("y");
  return b.link();
}

Netlist all_dff_netlist() {
  NetlistBuilder b("shift3");
  b.add_input("si");
  b.add_gate(GateType::Dff, "q1", {"si"});
  b.add_gate(GateType::Dff, "q2", {"q1"});
  b.add_gate(GateType::Dff, "q3", {"q2"});
  b.add_output("q3");
  return b.link();
}

// ---------- selection contract ----------------------------------------------

TEST(BackendApi, NameParseRoundTrip) {
  for (SimBackend b : {SimBackend::Auto, SimBackend::Scalar, SimBackend::Avx2,
                       SimBackend::Avx512}) {
    SimBackend back = SimBackend::Auto;
    ASSERT_TRUE(parse_backend(backend_name(b), &back)) << backend_name(b);
    EXPECT_EQ(back, b);
  }
  SimBackend out;
  EXPECT_FALSE(parse_backend("sse9", &out));
  EXPECT_FALSE(parse_backend("wide", &out));
  EXPECT_FALSE(parse_backend("", &out));
}

TEST(BackendApi, OneWidthSet) {
  std::vector<int> valid;
  for (int w = -1; w <= 64; ++w) {
    if (is_valid_block_words(w)) valid.push_back(w);
  }
  EXPECT_EQ(valid, (std::vector<int>{1, 2, 4, 8}));
  std::vector<int> dispatched;
  for (int w : valid) {
    dispatch_block_words(w, [&](auto c) { dispatched.push_back(c.value); });
  }
  EXPECT_EQ(dispatched, valid);
  EXPECT_NO_THROW(check_block_words("who", "knob", 8));
  try {
    check_block_words("who", "knob", 16);
    ADD_FAILURE() << "block_words=16 accepted";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "who: knob must be 1, 2, 4 or 8 (got 16)");
  }
}

TEST(BackendApi, ExplicitRequestsAreHardContracts) {
  // Every available backend resolves to itself at every valid width.
  for (SimBackend b :
       {SimBackend::Scalar, SimBackend::Avx2, SimBackend::Avx512}) {
    for (int w : {1, 2, 4, 8}) {
      if (backend_available(b)) {
        EXPECT_EQ(resolve_backend(b, w), b) << backend_name(b) << " w=" << w;
      } else {
        EXPECT_THROW(resolve_backend(b, w), Error) << backend_name(b);
      }
    }
  }
  // An invalid width throws whatever the backend.
  for (SimBackend b : {SimBackend::Auto, SimBackend::Scalar}) {
    for (int w : {0, 3, 5, 16, 32, 64}) {
      EXPECT_THROW(resolve_backend(b, w), Error) << "w=" << w;
    }
  }
}

// Auto resolution, including the SCANPOWER_FORCE_BACKEND steering that
// the CI matrix uses: a forced backend wins exactly when it is available;
// otherwise detection falls back gracefully (never an error). The test
// honors whatever environment it runs under.
TEST(BackendApi, AutoResolvesToForcedOrBestAvailable) {
  SimBackend forced = SimBackend::Auto;
  if (const char* env = std::getenv("SCANPOWER_FORCE_BACKEND")) {
    if (env[0] != '\0' && !parse_backend(env, &forced)) {
      forced = SimBackend::Auto;
    }
  }
  for (int w : {1, 2, 4, 8}) {
    const SimBackend r = resolve_backend(SimBackend::Auto, w);
    EXPECT_NE(r, SimBackend::Auto);
    EXPECT_TRUE(backend_available(r));
    if (forced != SimBackend::Auto && backend_available(forced)) {
      EXPECT_EQ(r, forced) << "w=" << w;
    } else {
      EXPECT_EQ(r, detect_best_backend()) << "w=" << w;
    }
  }
}

TEST(BackendApi, ScalarAlwaysAvailable) {
  EXPECT_TRUE(backend_available(SimBackend::Scalar));
  EXPECT_TRUE(backend_compiled(SimBackend::Scalar));
}

// ---------- fault simulation ------------------------------------------------

void expect_same_fault_sim(const FaultSimResult& ref, const FaultSimResult& got,
                           const std::string& what) {
  EXPECT_EQ(ref.detected, got.detected) << what;
  EXPECT_EQ(ref.detecting_pattern, got.detecting_pattern) << what;
  EXPECT_EQ(ref.new_detects_per_pattern, got.new_detects_per_pattern) << what;
  EXPECT_EQ(ref.num_detected, got.num_detected) << what;
}

void cross_check_fault_sim(const Netlist& nl, const std::string& name) {
  const auto faults = collapse_faults(nl);
  ASSERT_FALSE(faults.empty()) << name;
  const auto pats = random_patterns(nl, 48, 0xbac0 + nl.num_gates());

  for (SimBackend b : backends_under_test()) {
    for (auto [w, t] : matrix()) {
      FaultSimOptions ref_opts;
      ref_opts.block_words = w;
      ref_opts.backend = SimBackend::Scalar;
      FaultSimulator ref_sim(nl, ref_opts);
      const FaultSimResult ref = ref_sim.run(pats, faults);

      FaultSimOptions opts;
      opts.block_words = w;
      opts.num_threads = t;
      opts.backend = b;
      FaultSimulator sim(nl, opts);
      expect_same_fault_sim(ref, sim.run(pats, faults),
                            name + " backend=" + backend_name(b) +
                                " W=" + std::to_string(w) +
                                " T=" + std::to_string(t));
    }
  }
}

class BackendProfileTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BackendProfileTest, FaultSimMatchesScalar) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like(GetParam()));
  cross_check_fault_sim(nl, GetParam());
}

std::vector<std::string> all_profile_names() {
  std::vector<std::string> names;
  for (const SynthProfile& p : iscas89_profiles()) names.push_back(p.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, BackendProfileTest,
                         ::testing::ValuesIn(all_profile_names()),
                         [](const auto& info) { return info.param; });

class BackendDegenerateTest : public ::testing::TestWithParam<int> {
 protected:
  Netlist make() const {
    switch (GetParam()) {
      case 0: return single_gate_netlist();
      case 1: return po_from_pi_netlist();
      default: return all_dff_netlist();
    }
  }
};

TEST_P(BackendDegenerateTest, FaultSimMatchesScalar) {
  const Netlist nl = make();
  cross_check_fault_sim(nl, nl.name());
}

INSTANTIATE_TEST_SUITE_P(Shapes, BackendDegenerateTest,
                         ::testing::Values(0, 1, 2));

// ---------- diagnosis rankings ----------------------------------------------

void expect_same_diagnosis(const DiagnosisResult& ref,
                           const DiagnosisResult& got,
                           const std::string& what) {
  ASSERT_EQ(ref.ranked.size(), got.ranked.size()) << what;
  for (std::size_t i = 0; i < ref.ranked.size(); ++i) {
    EXPECT_EQ(ref.ranked[i].fault, got.ranked[i].fault) << what << " i=" << i;
    EXPECT_EQ(ref.ranked[i].fault_index, got.ranked[i].fault_index)
        << what << " i=" << i;
    EXPECT_EQ(ref.ranked[i].tfsf, got.ranked[i].tfsf) << what << " i=" << i;
    EXPECT_EQ(ref.ranked[i].tfsp, got.ranked[i].tfsp) << what << " i=" << i;
    EXPECT_EQ(ref.ranked[i].tpsf, got.ranked[i].tpsf) << what << " i=" << i;
    EXPECT_EQ(ref.ranked[i].dropped, got.ranked[i].dropped)
        << what << " i=" << i;
  }
  ASSERT_EQ(ref.multiplets.size(), got.multiplets.size()) << what;
  for (std::size_t s = 0; s < ref.multiplets.size(); ++s) {
    ASSERT_EQ(ref.multiplets[s].members.size(),
              got.multiplets[s].members.size())
        << what << " set=" << s;
    for (std::size_t i = 0; i < ref.multiplets[s].members.size(); ++i) {
      EXPECT_EQ(ref.multiplets[s].members[i].fault,
                got.multiplets[s].members[i].fault)
          << what << " set=" << s << " i=" << i;
    }
    EXPECT_EQ(ref.multiplets[s].covered, got.multiplets[s].covered) << what;
    EXPECT_EQ(ref.multiplets[s].uncovered, got.multiplets[s].uncovered)
        << what;
  }
  EXPECT_EQ(ref.union_fallback, got.union_fallback) << what;
  EXPECT_EQ(ref.num_candidates, got.num_candidates) << what;
  EXPECT_EQ(ref.num_dropped, got.num_dropped) << what;
}

TEST(BackendCrossCheck, DiagnosisRankingsMatchScalar) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const auto faults = collapse_faults(nl);
  const auto pats = random_patterns(nl, 64, 0xd1a6);
  ResponseCapture cap(nl, 1);
  // A single-fault log and a two-fault (multiplet-exercising) log, built
  // from faults the pattern set actually detects.
  FaultSimulator fsim(nl, {});
  const FaultSimResult fres = fsim.run(pats, faults);
  std::vector<Fault> detected;
  for (std::size_t i = 0; i < faults.size() && detected.size() < 2; ++i) {
    // Distinct gates, so the pair is a consistent two-fault machine.
    if (fres.detected[i] &&
        (detected.empty() || detected[0].gate != faults[i].gate)) {
      detected.push_back(faults[i]);
    }
  }
  ASSERT_EQ(detected.size(), 2u);
  FailureLog single = cap.inject(pats, detected[0]);
  ASSERT_FALSE(single.failures.empty());
  FailureLog twin = cap.inject(pats, std::span<const Fault>(detected));
  for (const FailureLog* log : {&single, &twin}) {
    for (SimBackend b : backends_under_test()) {
      for (auto [w, t] : matrix()) {
        DiagnosisOptions ref_opts;
        ref_opts.block_words = w;
        ref_opts.backend = SimBackend::Scalar;
        Diagnoser ref_diag(nl, ref_opts);
        const DiagnosisResult ref = ref_diag.diagnose(pats, faults, *log);

        DiagnosisOptions opts;
        opts.block_words = w;
        opts.backend = b;
        opts.num_threads = t;
        Diagnoser diag(nl, opts);
        expect_same_diagnosis(ref, diag.diagnose(pats, faults, *log),
                              std::string("backend=") + backend_name(b) +
                                  " W=" + std::to_string(w) +
                                  " T=" + std::to_string(t));
      }
    }
  }
}

// ---------- observability sums ----------------------------------------------

TEST(BackendCrossCheck, ObservabilitySumsMatchScalar) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s444"));
  const LeakageModel model;
  for (SimBackend b : backends_under_test()) {
    for (auto [w, t] : matrix()) {
      ObservabilityOptions ref_opts;
      ref_opts.samples = 512;
      ref_opts.block_words = w;
      ref_opts.backend = SimBackend::Scalar;
      const LeakageObservability ref(nl, model, ref_opts);

      ObservabilityOptions opts = ref_opts;
      opts.backend = b;
      opts.num_threads = t;
      const LeakageObservability got(nl, model, opts);
      const std::string what = std::string("backend=") + backend_name(b) +
                               " W=" + std::to_string(w) +
                               " T=" + std::to_string(t);
      // Bit-identical doubles: the masked-add reduction has one defined
      // accumulation order shared by every backend.
      EXPECT_EQ(ref.values(), got.values()) << what;
      EXPECT_EQ(ref.mean_leakage_na(), got.mean_leakage_na()) << what;
    }
  }
}

// ---------- fill choices ----------------------------------------------------

TEST(BackendCrossCheck, FillChoicesMatchScalar) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s382"));
  const LeakageModel model;
  const std::vector<bool> eligible(nl.dffs().size(), true);
  for (SimBackend b : backends_under_test()) {
    for (auto [w, t] : matrix()) {
      FillOptions ref_opts;
      // Enough trials that the candidate-count clamp never narrows any
      // width in the matrix (the widest block, 8 words, is 512 lanes).
      ref_opts.trials = 4096;
      ref_opts.block_words = w;
      ref_opts.backend = SimBackend::Scalar;
      std::vector<Logic> ref_pi(nl.inputs().size(), Logic::X);
      std::vector<Logic> ref_mux(nl.dffs().size(), Logic::X);
      const FillResult ref = fill_dont_cares_min_leakage(
          nl, model, ref_pi, ref_mux, eligible, ref_opts);

      FillOptions opts = ref_opts;
      opts.backend = b;
      opts.num_threads = t;
      std::vector<Logic> pi(nl.inputs().size(), Logic::X);
      std::vector<Logic> mux(nl.dffs().size(), Logic::X);
      const FillResult got =
          fill_dont_cares_min_leakage(nl, model, pi, mux, eligible, opts);

      const std::string what = std::string("backend=") + backend_name(b) +
                               " W=" + std::to_string(w) +
                               " T=" + std::to_string(t);
      EXPECT_EQ(ref_pi, pi) << what;
      EXPECT_EQ(ref_mux, mux) << what;
      EXPECT_EQ(ref.best_leakage_na, got.best_leakage_na) << what;
      EXPECT_EQ(ref.first_leakage_na, got.first_leakage_na) << what;
      EXPECT_EQ(ref.free_inputs, got.free_inputs) << what;
    }
  }
}

// The threaded fill must also be bit-identical to serial at a fixed
// backend/width -- the per-64-trial-word seeding satellite on its own.
TEST(BackendCrossCheck, ThreadedFillMatchesSerial) {
  const Netlist nl = map_to_nand_nor_inv(make_iscas89_like("s344"));
  const LeakageModel model;
  const std::vector<bool> eligible(nl.dffs().size(), true);
  FillOptions serial;
  serial.trials = 1024;
  serial.block_words = 1;
  serial.num_threads = 1;
  std::vector<Logic> ref_pi(nl.inputs().size(), Logic::X);
  std::vector<Logic> ref_mux(nl.dffs().size(), Logic::X);
  const FillResult ref = fill_dont_cares_min_leakage(nl, model, ref_pi,
                                                     ref_mux, eligible, serial);
  for (int t : {2, 4, 0}) {
    FillOptions opts = serial;
    opts.num_threads = t;
    std::vector<Logic> pi(nl.inputs().size(), Logic::X);
    std::vector<Logic> mux(nl.dffs().size(), Logic::X);
    const FillResult got =
        fill_dont_cares_min_leakage(nl, model, pi, mux, eligible, opts);
    EXPECT_EQ(ref_pi, pi) << "T=" << t;
    EXPECT_EQ(ref_mux, mux) << "T=" << t;
    EXPECT_EQ(ref.best_leakage_na, got.best_leakage_na) << "T=" << t;
    EXPECT_EQ(ref.first_leakage_na, got.first_leakage_na) << "T=" << t;
  }
}

// ---------- scan-power pass -------------------------------------------------

/// One gate on every leakage path of the power pass. Inputs k<i> never
/// carry X, inputs x<i> do in some lanes of every word but word 0; a gate
/// "g<k>_<x>" reads x X-carrying and k - x X-free inputs:
///  - widths 1-4 with X on 0..k fanins (in-register tables; X words take
///    the slow path), and gates fed by those;
///  - 5 and 6 inputs (expected tables), 7 (wider than kMaxXTableWidth)
///    and 13 (wider than kMaxTableWidth: analytic in every word);
///  - leakless gates: the sources, a constant and a DFF.
Netlist power_pass_netlist() {
  NetlistBuilder b("power_pass");
  for (int i = 0; i < 13; ++i) {
    b.add_input("k" + std::to_string(i));
    b.add_input("x" + std::to_string(i));
  }
  const auto fanins = [](int k, int x) {
    std::vector<std::string> f;
    for (int i = 0; i < k; ++i) {
      std::string name(1, i < x ? 'x' : 'k');
      name += std::to_string(i);
      f.push_back(std::move(name));
    }
    return f;
  };
  std::vector<std::string> outs;
  for (const int k : {1, 2, 3, 4, 5, 6, 7, 13}) {
    for (int x = 0; x <= std::min(k, 4); ++x) {
      std::string name = "g";
      name += std::to_string(k) + "_" + std::to_string(x);
      const GateType t = k == 1 ? GateType::Not
                                : (x % 2 ? GateType::Nor : GateType::Nand);
      b.add_gate(t, name, fanins(k, x));
      outs.push_back(name);
    }
  }
  b.add_gate(GateType::Const0, "zero", {});
  b.add_gate(GateType::Nor, "h1", {"zero", "g2_1"});
  b.add_gate(GateType::Dff, "q", {"h1"});
  b.add_gate(GateType::Nand, "h2", {"q", "g3_0", "g4_2"});
  b.add_gate(GateType::Nor, "h3", {"h2", "g1_1", "g2_0", "g7_1"});
  outs.push_back("h3");
  for (const std::string& o : outs) b.add_output(o);
  return b.link();
}

/// Per-lane leakage, toggled-load sums and final carries of two
/// consecutive sweeps of the power pass on `backend`: a full first sweep
/// (lane 0 masked as the first cycle) and a second one that ends in a
/// partial word. Sources are random with seeded X, the carries start
/// random.
struct PowerPassRun {
  std::vector<double> leak;
  std::vector<double> cap;
  std::vector<PatternWord> carry1;
  std::vector<PatternWord> carry0;
  std::size_t slow_calls = 0;
};

PowerPassRun run_power_pass(const Netlist& nl, SimBackend backend, int words) {
  const LeakageModel model;
  const GateLeakageTables tables(nl, model);
  const std::vector<double> loads = CapacitanceModel().load_vector(nl);
  TernaryBlockSimulator sim(nl, words, SimBackend::Scalar);
  const SimKernels& kern = sim_kernels(backend);
  const PackedLeakageEvaluator leakage(nl, tables, backend);

  std::vector<std::uint32_t> fanins4(nl.num_gates() * 4, sim.zero_row());
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const std::span<const GateId> fans = nl.fanin_span(g);
    if (fans.size() <= 4) {
      std::copy(fans.begin(), fans.end(), fanins4.begin() + g * 4);
    }
  }
  struct Slow {
    const PackedLeakageEvaluator* leakage;
    const SimKernels* kern;
    const TernaryBlockSimulator* sim;
    std::size_t calls = 0;
  } slow{&leakage, &kern, &sim};

  PowerPassRun run;
  Rng carry_rng(0xca77);
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    run.carry1.push_back(carry_rng.next_u64() & 1);
    run.carry0.push_back(carry_rng.next_u64() & 1 ? 1 : 1 - run.carry1.back());
  }
  std::vector<PatternWord> valid(static_cast<std::size_t>(words));
  std::vector<double> leak(sim.lanes());
  std::vector<double> cap(sim.lanes());
  PowerPassArgs a;
  a.num_gates = nl.num_gates();
  a.p1 = sim.p1(0);
  a.p0 = sim.p0(0);
  a.words = words;
  a.width = tables.widths();
  a.table_offset = tables.table_offsets();
  a.tables = tables.table_storage();
  a.fanins4 = fanins4.data();
  a.slow_leak = [](void* ctx, GateId g, int word, double* vals64) {
    Slow& s = *static_cast<Slow*>(ctx);
    ++s.calls;
    std::fill_n(vals64, 64, 0.0);
    s.leakage->add_gate_word(*s.kern, *s.sim, g, word, vals64);
  };
  a.slow_ctx = &slow;
  a.loads = loads.data();
  a.valid = valid.data();
  a.carry1 = run.carry1.data();
  a.carry0 = run.carry0.data();
  a.leak = leak.data();
  a.cap = cap.data();

  for (int sweep = 0; sweep < 2; ++sweep) {
    Rng rng(0x5eed + static_cast<std::uint64_t>(sweep));
    const auto fill = [&](GateId src, bool with_x) {
      for (int w = 0; w < words; ++w) {
        const PatternWord ones = rng.next_u64();
        const PatternWord xs =
            with_x && w > 0 ? rng.next_u64() & rng.next_u64() & rng.next_u64()
                            : 0;
        sim.p1(src)[w] = ones | xs;
        sim.p0(src)[w] = ~ones | xs;
      }
    };
    for (GateId pi : nl.inputs()) fill(pi, nl.gate_name(pi)[0] == 'x');
    for (GateId ff : nl.dffs()) fill(ff, true);
    sim.eval();
    std::fill(valid.begin(), valid.end(), ~PatternWord{0});
    if (sweep == 0) {
      a.words_used = words;
      valid[0] &= ~PatternWord{1};  // the first cycle
    } else {
      a.words_used = std::max(1, words - 1);
      valid[static_cast<std::size_t>(a.words_used - 1)] =
          (PatternWord{1} << 37) - 1;
    }
    kern.power_pass(a);
    const std::size_t n = static_cast<std::size_t>(a.words_used) * 64;
    run.leak.insert(run.leak.end(), leak.begin(), leak.begin() + n);
    run.cap.insert(run.cap.end(), cap.begin(), cap.begin() + n);
  }
  run.slow_calls = slow.calls;
  return run;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(BackendCrossCheck, PowerPassMatchesScalar) {
  const Netlist nl = power_pass_netlist();
  for (const int w : {1, 4, 8}) {
    const PowerPassRun ref = run_power_pass(nl, SimBackend::Scalar, w);
    EXPECT_GT(ref.slow_calls, 0u) << "W=" << w;
    double total = 0.0;
    for (const double c : ref.cap) total += c;
    EXPECT_GT(total, 0.0) << "W=" << w;
    for (SimBackend b : backends_under_test()) {
      const PowerPassRun got = run_power_pass(nl, b, w);
      const std::string what =
          std::string("backend=") + backend_name(b) + " W=" + std::to_string(w);
      EXPECT_TRUE(same_bytes(ref.leak, got.leak)) << what;
      EXPECT_TRUE(same_bytes(ref.cap, got.cap)) << what;
      EXPECT_EQ(ref.carry1, got.carry1) << what;
      EXPECT_EQ(ref.carry0, got.carry0) << what;
      EXPECT_EQ(ref.slow_calls, got.slow_calls) << what;
    }
  }
}

}  // namespace
}  // namespace scanpower
