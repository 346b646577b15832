// diag_serve: the TCP diagnosis service under an open loop of requests.
//
// Before timing, the benchmark writes both designs as .bench files and a
// corpus of tester evidence for each (clean single-fault logs, noisy logs,
// fault-pair logs and MISR signature logs), and diagnoses every entry in
// process to get the exact result line the server must send back. Set-up
// (timed) spawns `diag_server --listen 0`, registers both designs on every
// connection and warms each design with `inject-index 0` and one signature
// log; its CPU time is measured on servers that are stopped again. The
// measurement walks a fixed ladder of request rates on a fresh server; at
// each rung, Poisson arrivals are served by at most nproc connections
// (split between the designs), each request being `log|signature-log
// <path>` followed by `flush`, timed from when it was due, and the
// server's CPU time over the rung is recorded. Every wire result is
// compared with the in-process one.
//
// The traced run replays the corpus three ways -- in process (ingest ->
// diagnose), through an in-process DiagnosisQueue and over TCP -- under
// spans, then runs the nominal rung once more while sampling the server's
// queue depth through the `stats` command.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "bench/bench_common.hpp"
#include "calib.hpp"
#include "core/work_queue.hpp"
#include "diag/noise.hpp"
#include "net/client.hpp"
#include "net/framing.hpp"
#include "netlist/bench_io.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace scanpower;

constexpr std::size_t kTop = 5;  // diag_server's default --top
// diag_server --threads. Two, not one per core: when every core scores
// candidates, any core the host lends elsewhere stalls the request, and on
// a shared 4-core host that swung latencies by 2x between runs.
constexpr int kServerThreads = 2;
// Evidence kinds: clean single-fault log, noisy log, fault-pair log, MISR
// signature log.
enum Kind { kFull, kNoisy, kPair, kCompact, kNumKinds };
const char* const kKindName[kNumKinds] = {"full", "noisy", "pair", "compact"};

struct Design {
  std::string path;  ///< .bench file the server loads
  Netlist nl;        ///< the same file, loaded in process
  std::uint64_t pattern_seed = 0;
  std::vector<TestPattern> patterns;
  std::unique_ptr<ScanSession> ref;  ///< in-process reference
  std::string warm;  ///< expected result of the warm request
};

struct Entry {
  int design = 0;
  int kind = 0;
  std::string path;
  std::string command;  ///< "log <path>" or "signature-log <path>"
  std::vector<Fault> injected;
  std::string expected;  ///< result line the server must send
};

FlowOptions service_options() {
  // What diag_server builds from `--threads n` (block width 4, Auto).
  FlowOptions fo;
  fo.diag.num_threads = kServerThreads;
  fo.tpg.fault_sim.block_words = fo.diag.block_words;
  fo.tpg.fault_sim.num_threads = kServerThreads;
  return fo;
}

Evidence load_evidence(const Design& d, const Entry& e) {
  if (e.kind == kCompact) return load_signature_log_file(e.path);
  return load_failure_log_file(e.path, &d.nl, &d.ref->points());
}

/// Injected fault (or a member of the injected pair) ranked first, ties
/// counted, or in the top suspect set.
bool is_hit(const DiagnosisResult& res, const std::vector<Fault>& injected) {
  for (const Fault& f : injected) {
    if (res.rank_of(f) == 1) return true;
    if (!res.multiplets.empty() && res.multiplets.front().contains(f)) {
      return true;
    }
  }
  return false;
}

/// Writes the designs and the evidence corpus (the benchmark's own work,
/// outside set-up), and the expected result of every entry.
std::vector<Entry> build_corpus(const Args& args, std::vector<Design>& designs,
                                Report& rep) {
  const FlowOptions fo = service_options();
  std::vector<Entry> corpus;
  for (std::size_t di = 0; di < args.designs.size(); ++di) {
    Design& d = designs.emplace_back();
    d.path = args.work_dir + "/" + args.designs[di] + ".bench";
    {
      std::ofstream f(d.path);
      write_bench(f, benchtool::prepare_circuit(args.designs[di]));
    }
    d.nl = parse_bench_file(d.path);
    // The corpus comes from --corpus-seed, not --seed: the mix of evidence
    // (and so its cost) is the same in every run; --seed drives the
    // traffic (arrival times and request order).
    Rng rng(args.corpus_seed * 0x100000001b3ULL + di);
    d.pattern_seed = rng.next_u64();
    Rng prng(d.pattern_seed);
    for (std::size_t i = 0; i < args.diag_patterns; ++i) {
      d.patterns.push_back(random_pattern(d.nl, prng));
    }
    d.ref = std::make_unique<ScanSession>(d.nl, fo);
    d.ref->bind_patterns(d.patterns);
    const std::vector<Fault>& faults = d.ref->faults();
    d.warm = net::result_json(d.ref->diagnose(d.ref->inject(faults[0])), d.nl,
                              d.nl.name(), "inject-index 0",
                              d.patterns.size(), kTop);
    const auto pick = [&] { return faults[rng.next_below(faults.size())]; };
    for (int kind = 0; kind < kNumKinds; ++kind) {
      for (int m = 0; m < args.per_kind.at(di); ++m) {
        Entry e;
        e.design = static_cast<int>(di);
        e.kind = kind;
        e.path = args.work_dir + "/" + args.designs[di] + "-" +
                 kKindName[kind] + "-" + std::to_string(m) +
                 (kind == kCompact ? ".slog" : ".flog");
        e.command = (kind == kCompact ? "signature-log " : "log ") + e.path;
        for (int attempt = 0;; ++attempt) {
          SP_CHECK(attempt < 1000, "corpus: no detectable fault found");
          e.injected = {pick()};
          if (kind == kPair) {
            e.injected.push_back(pick());
            if (e.injected[0] == e.injected[1] ||
                d.ref->inject(e.injected[0]).failures.empty() ||
                d.ref->inject(e.injected[1]).failures.empty()) {
              continue;
            }
          }
          if (kind == kCompact) {
            const SignatureLog sl = d.ref->inject_compacted(e.injected[0]);
            if (sl.num_failing_windows() == 0) continue;
            save_signature_log_file(e.path, sl);
            break;
          }
          FailureLog log = d.ref->inject(e.injected);
          if (log.failures.size() < 4) continue;
          if (kind == kNoisy) {
            const NoiseModel noise({0.05, 0.05, rng.next_u64()});
            log = noise.corrupt(log, d.ref->points().size());
            if (log.failures.empty()) continue;
          }
          save_failure_log_file(e.path, log);
          break;
        }
        corpus.push_back(std::move(e));
      }
    }
  }
  // The in-process reference: ingest + diagnose, untraced.
  double hits = 0;
  for (Entry& e : corpus) {
    Design& d = designs[e.design];
    const auto t0 = Clock::now();
    const DiagnosisResult res = d.ref->diagnose(load_evidence(d, e));
    rep.sample("inproc_ms", ms_since(t0));
    e.expected = net::result_json(res, d.nl, d.nl.name(), e.command,
                                  d.patterns.size(), kTop);
    hits += is_hit(res, e.injected) ? 1 : 0;
  }
  rep.value("q.hit_pct", 100.0 * hits / static_cast<double>(corpus.size()));
  rep.value("corpus", static_cast<double>(corpus.size()));
  return corpus;
}

// ---------- the server process ----------------------------------------------

class ServerProcess {
 public:
  explicit ServerProcess(const Args& args) {
    int in_pipe[2], out_pipe[2];
    SP_CHECK(pipe2(in_pipe, O_CLOEXEC) == 0 && pipe2(out_pipe, O_CLOEXEC) == 0,
             "pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, in_pipe[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&fa, out_pipe[1], STDOUT_FILENO);
    const std::string threads = std::to_string(kServerThreads);
    const char* argv[] = {args.server.c_str(), "--listen", "0", "--threads",
                          threads.c_str(), "--log-level", "warn", nullptr};
    const int rc = posix_spawn(&pid_, args.server.c_str(), &fa, nullptr,
                               const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(in_pipe[0]);
    close(out_pipe[1]);
    to_child_ = in_pipe[1];
    from_child_ = out_pipe[0];
    SP_CHECK(rc == 0, "cannot spawn " + args.server + ": " + std::strerror(rc));
  }

  ~ServerProcess() { stop(); }

  /// Reads "listening <port>" from the server's stdout.
  void await_port() {
    std::string line;
    char c;
    pollfd p{from_child_, POLLIN, 0};
    while (poll(&p, 1, 60'000) == 1 && read(from_child_, &c, 1) == 1 &&
           c != '\n') {
      line.push_back(c);
    }
    SP_CHECK(line.rfind("listening ", 0) == 0,
             "diag_server did not report its port (got \"" + line + "\")");
    port_ = static_cast<std::uint16_t>(std::atoi(line.c_str() + 10));
  }

  std::uint16_t port() const { return port_; }

  double peak_rss_mb() const {
    return perfbench::peak_rss_mb(std::to_string(pid_));
  }

  /// CPU time the server's live threads have used so far, in ms, summed
  /// over /proc/<pid>/task/*/schedstat (nanosecond runtimes, without the
  /// steal time a hypervisor reports). Its threads -- listener, one reader
  /// per connection, dispatcher, workers -- live as long as the
  /// connections, so the difference across a rung is the rung's work.
  double cpu_ms() const {
    const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
    double ns = 0;
    for (const auto& task : std::filesystem::directory_iterator(dir)) {
      std::ifstream in(task.path() / "schedstat");
      double run_ns = 0;
      if (in >> run_ns) ns += run_ns;
    }
    return ns / 1e6;
  }

  /// CPU time of the whole server lifetime (ms, microsecond resolution);
  /// known once stop() has reaped it.
  double exit_cpu_ms() const { return exit_cpu_ms_; }

  /// `quit` on the control channel, then reap (SIGKILL after 20 s).
  void stop() {
    if (pid_ < 0) return;
    if (write(to_child_, "quit\n", 5) < 0) { /* already gone */ }
    close(to_child_);
    int status = 0;
    rusage ru{};
    for (int i = 0; i < 2000; ++i) {
      if (wait4(pid_, &status, WNOHANG, &ru) == pid_) {
        pid_ = -1;
        break;
      }
      usleep(10'000);
    }
    if (pid_ >= 0) {
      kill(pid_, SIGKILL);
      wait4(pid_, &status, 0, &ru);
      pid_ = -1;
    }
    exit_cpu_ms_ = (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
                   (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
    close(from_child_);
  }

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::uint16_t port_ = 0;
  double exit_cpu_ms_ = 0;
};

// ---------- clients ---------------------------------------------------------

struct Worker {
  int design = 0;
  std::unique_ptr<net::DiagClient> client;
};

/// One evidence request (`log|signature-log` + `flush`); true iff the
/// single result line equals the expected one. Throws on failure.
bool request(net::DiagClient& c, const Entry& e) {
  const std::string ack = c.submit(e.command);
  if (ack.find("\"error\"") != std::string::npos) {
    throw Error("request rejected: " + ack);
  }
  const std::vector<std::string> lines = c.flush();
  return lines.size() == 1 && lines[0] == e.expected;
}

struct Service {
  std::unique_ptr<ServerProcess> server;
  std::vector<Worker> workers;

  /// Closes every connection, then stops the server.
  void stop() {
    workers.clear();
    if (server) server->stop();
  }
};

/// Spawns the server, registers every design on every connection and
/// warms each design's full-log and signature-log paths.
Service start_service(const Args& args, const std::vector<Design>& designs,
                      const std::vector<Entry>& corpus, bool& warm_ok) {
  Service s;
  s.server = std::make_unique<ServerProcess>(args);
  s.server->await_port();
  const int nproc = std::max(1u, std::thread::hardware_concurrency());
  const int per_design =
      std::max(1, nproc / static_cast<int>(designs.size()));
  for (std::size_t di = 0; di < designs.size(); ++di) {
    for (int w = 0; w < per_design; ++w) {
      net::DiagClient::Options o;
      o.io_timeout_ms = 30'000;
      o.seed = 0x5eed + 97 * s.workers.size();
      Worker wk;
      wk.design = static_cast<int>(di);
      wk.client = std::make_unique<net::DiagClient>("127.0.0.1",
                                                    s.server->port(), o);
      const std::string a = wk.client->design(designs[di].path, true);
      const std::string b =
          wk.client->patterns(designs[di].patterns.size(),
                              designs[di].pattern_seed);
      SP_CHECK(a.find("\"ok\"") != std::string::npos &&
                   b.find("\"ok\"") != std::string::npos,
               "design registration failed: " + a + " " + b);
      s.workers.push_back(std::move(wk));
    }
  }
  // Warm requests: the design's first collapsed fault (full response) and
  // its first signature log, which builds the server's lazy MISR state --
  // otherwise the first compacted request of a rung pays it and stalls the
  // dispatcher. Both are the same in every run.
  for (std::size_t di = 0; di < designs.size(); ++di) {
    Worker& w = *std::find_if(s.workers.begin(), s.workers.end(),
                              [&](const Worker& x) {
                                return x.design == static_cast<int>(di);
                              });
    w.client->submit("inject-index 0");
    const std::vector<std::string> lines = w.client->flush();
    warm_ok = warm_ok && lines.size() == 1 && lines[0] == designs[di].warm;
    const Entry& sig = *std::find_if(corpus.begin(), corpus.end(),
                                     [&](const Entry& e) {
                                       return e.design == w.design &&
                                              e.kind == kCompact;
                                     });
    warm_ok = request(*w.client, sig) && warm_ok;
  }
  return s;
}

// ---------- the open loop ---------------------------------------------------

enum Status { kUnsent = 0, kOk = 1, kFailed = 2, kMismatch = 3 };

struct Req {
  double due_ms = 0;
  int entry = 0;
  double pick_ms = -1;  ///< when a connection turned to it
  double sent_ms = -1;
  double done_ms = -1;
  int status = kUnsent;
  std::string stats;  ///< server `stats` line after it (sampling rungs)
};

/// Runs one rung: rate x seconds Poisson arrivals at `rate`, the corpus
/// replayed in a seeded order. Requests still unsent kGraceMs after the
/// last arrival are abandoned (they count as missing the latency limit).
std::vector<Req> run_rung(Service& svc, const std::vector<Entry>& corpus,
                          std::size_t num_designs, double rate, double seconds,
                          std::uint64_t seed, bool sample_stats) {
  constexpr double kGraceMs = 2'000;
  Rng rng(seed);
  std::vector<int> order(corpus.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  rng.shuffle(order);
  // A fixed number of arrivals (rate x seconds), so the tail percentile
  // of a rung does not depend on the draw.
  const auto count = static_cast<std::size_t>(std::lround(rate * seconds));
  SP_CHECK(count > 0, "diag_serve: a rung needs at least one request");
  std::vector<Req> reqs;
  double t = 0;
  for (std::size_t k = 0; k < count; ++k) {
    t += -std::log(1.0 - rng.next_double()) / rate * 1e3;
    Req r;
    r.due_ms = t;
    r.entry = order[k % order.size()];
    reqs.push_back(r);
  }
  std::vector<std::vector<Req*>> by_design(num_designs);
  for (Req& r : reqs) by_design[corpus[r.entry].design].push_back(&r);
  std::vector<std::atomic<std::size_t>> cursor(num_designs);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const double deadline_ms = reqs.back().due_ms + kGraceMs;
  std::vector<std::thread> threads;
  for (Worker& w : svc.workers) {
    threads.emplace_back([&, wp = &w] {
      auto& mine = by_design[wp->design];
      for (;;) {
        const std::size_t i = cursor[wp->design].fetch_add(1);
        if (i >= mine.size()) return;
        Req& r = *mine[i];
        r.pick_ms = ms_between(start, Clock::now());
        if (r.pick_ms > deadline_ms) continue;
        std::this_thread::sleep_until(
            start + std::chrono::microseconds(
                        static_cast<std::int64_t>(r.due_ms * 1e3)));
        r.sent_ms = ms_between(start, Clock::now());
        try {
          const bool same = request(*wp->client, corpus[r.entry]);
          r.done_ms = ms_between(start, Clock::now());
          r.status = same ? kOk : kMismatch;
          if (sample_stats) r.stats = wp->client->request("stats");
        } catch (const std::exception&) {
          r.status = kFailed;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  return reqs;
}

void record_rung(Report& rep, const std::string& key,
                 const std::vector<Req>& reqs) {
  for (const Req& r : reqs) {
    rep.sample(key + ".due_ms", r.due_ms);
    rep.sample(key + ".pick_ms", r.pick_ms);
    rep.sample(key + ".sent_ms", r.sent_ms);
    rep.sample(key + ".done_ms", r.done_ms);
    rep.sample(key + ".status", r.status);
    rep.sample(key + ".entry", r.entry);
  }
}

/// Attempted / failed / mismatched tallies over a rung.
void tally(Report& rep, const std::vector<Req>& reqs, bool& same) {
  for (const Req& r : reqs) {
    if (r.status == kUnsent) continue;
    rep.add("attempted", 1);
    if (r.status == kFailed) rep.add("failed", 1);
    if (r.status == kMismatch) same = false;
  }
}

std::uint64_t stats_field(const std::string& line, const char* key) {
  return net::json_u64_field(line, key).value_or(0);
}

// ---------- traced replays --------------------------------------------------

void traced_replays(const Args& args, std::vector<Design>& designs,
                    const std::vector<Entry>& corpus, Service& svc,
                    Report& rep, SpanRecorder& rec, bool& same) {
  // 1. in process: ingest -> diagnose, per evidence kind.
  static const char* const kDiagSpan[kNumKinds] = {
      "diagnose.full", "diagnose.noisy", "diagnose.pair", "diagnose.compact"};
  // Each entry runs untraced, then traced: the difference between the
  // two sums is the tracing overhead.
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const Entry& e = corpus[i];
    Design& d = designs[e.design];
    auto t0 = Clock::now();
    d.ref->diagnose(load_evidence(d, e));
    rep.sample("untraced_inproc_ms", ms_since(t0));
    t0 = Clock::now();
    Span req(rec, "inproc", static_cast<std::int64_t>(i));
    Evidence ev;
    {
      Span s(rec, "ingest");
      ev = load_evidence(d, e);
    }
    DiagnosisResult res;
    {
      Span s(rec, kDiagSpan[e.kind]);
      res = d.ref->diagnose(ev);
    }
    rep.sample("traced_inproc_ms", ms_since(t0));
    const DiagnosisStats& st = res.stats;
    rep.sample("diag.prune_us", static_cast<double>(st.prune_us));
    rep.sample("diag.score_us", static_cast<double>(st.score_us));
    rep.sample("diag.cover_us", static_cast<double>(st.cover_us));
    rep.sample("diag.candidates", static_cast<double>(res.num_candidates));
    rep.sample("diag.dropped", static_cast<double>(res.num_dropped));
    rep.sample("diag.sweep_calls", static_cast<double>(st.sweep_calls));
    rep.sample("diag.sweep_aborts", static_cast<double>(st.sweep_aborts));
    rep.sample("diag.union_fallback", res.union_fallback ? 1 : 0);
  }

  // 2. through an in-process DiagnosisQueue, one request at a time.
  {
    DiagnosisQueue queue;
    const FlowOptions fo = service_options();
    std::vector<DiagnosisQueue::DesignKey> keys;
    for (const Design& d : designs) {
      keys.push_back(queue.open(d.nl, fo, d.patterns));
    }
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const Entry& e = corpus[i];
      const Design& d = designs[e.design];
      Evidence ev = load_evidence(d, e);
      DiagnosisResult res;
      {
        Span s(rec, "queue", static_cast<std::int64_t>(i));
        std::future<DiagnosisResult> f =
            queue.submit(keys[e.design], std::move(ev));
        res = f.get();
      }
      same = same && net::result_json(res, d.nl, d.nl.name(), e.command,
                                      d.patterns.size(), kTop) == e.expected;
    }
    queue.drain();
  }

  // 3. over TCP, one request at a time.
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const Entry& e = corpus[i];
    for (Worker& w : svc.workers) {
      if (w.design != e.design) continue;
      Span s(rec, "net", static_cast<std::int64_t>(i));
      same = request(*w.client, e) && same;
      break;
    }
  }

  // 4. the nominal rung again, sampling the server's queue depth.
  const double rate = args.rates.at(args.nominal);
  const double secs = args.seconds * args.shares.at(args.nominal);
  const double cpu0 = svc.server->cpu_ms();
  const std::vector<Req> reqs =
      run_rung(svc, corpus, designs.size(), rate, secs, args.seed + 1000, true);
  rep.value("rung" + std::to_string(args.nominal) + ".server_cpu_ms",
            svc.server->cpu_ms() - cpu0);
  record_rung(rep, "rung" + std::to_string(args.nominal), reqs);
  rep.value("rung" + std::to_string(args.nominal) + ".rate", rate);
  rep.value("rung" + std::to_string(args.nominal) + ".seconds", secs);
  tally(rep, reqs, same);
  double depth_max = 0;
  for (const Req& r : reqs) {
    depth_max = std::max(
        depth_max, static_cast<double>(stats_field(r.stats, "queue.depth")));
  }
  rep.value("queue.depth_max", depth_max);
  const std::string last = svc.workers.front().client->request("stats");
  const double requests = static_cast<double>(stats_field(last, "net.requests"));
  rep.value("net.requests", requests);
  rep.value("net.bytes", static_cast<double>(stats_field(last, "net.bytes_in") +
                                             stats_field(last, "net.bytes_out")));
  rep.value("queue.rejected",
            static_cast<double>(stats_field(last, "queue.rejected")));
}

}  // namespace

void run_diag_serve(const Args& args, Report& rep, SpanRecorder& rec) {
  SP_CHECK(!args.server.empty(), "diag_serve needs --server");
  SP_CHECK(args.per_kind.size() == args.designs.size(),
           "diag_serve: --per-kind needs one count per design");
  SP_CHECK(args.rates.size() == args.shares.size() && !args.rates.empty() &&
               args.nominal >= 0 &&
               args.nominal < static_cast<int>(args.rates.size()),
           "diag_serve: bad ladder");
  std::vector<Design> designs;
  const std::vector<Entry> corpus = build_corpus(args, designs, rep);
  rep.value("attempted", 0);
  rep.value("failed", 0);

  // Set-up is timed `setups` times (once in traced runs), each time on a
  // server of its own that is stopped again, so its whole CPU time (spawn,
  // both designs, the warm requests) is known: setup_s is that plus the
  // benchmark's own CPU time registering the designs. A fresh server then
  // serves the run, so every rung runs on a warm server.
  bool same = true;
  for (int i = 0; i < (args.trace ? 1 : args.setups); ++i) {
    const double c0 = process_cpu_ms();
    const auto t0 = Clock::now();
    Service s = start_service(args, designs, corpus, same);
    rep.sample("setup_wall_s", ms_since(t0) / 1e3);
    const double client_ms = process_cpu_ms() - c0;
    s.stop();
    rep.sample("setup_s", (client_ms + s.server->exit_cpu_ms()) / 1e3);
  }
  Service svc = start_service(args, designs, corpus, same);
  rep.value("connections", static_cast<double>(svc.workers.size()));
  if (args.trace) {
    traced_replays(args, designs, corpus, svc, rep, rec, same);
  } else {
    for (std::size_t k = 0; k < args.rates.size(); ++k) {
      const double secs = args.seconds * args.shares[k];
      // Host-speed reference bursts all through the nominal rung, whose
      // server CPU time is the end-to-end metric.
      std::atomic<bool> rung_done{false};
      std::vector<double> speed_ms;
      std::thread speed;
      if (static_cast<int>(k) == args.nominal) {
        speed = std::thread([&] {
          SpeedReference ref;
          while (!rung_done.load()) {
            speed_ms.push_back(ref.burst());
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
        });
      }
      const double cpu0 = svc.server->cpu_ms();
      const std::vector<Req> reqs =
          run_rung(svc, corpus, designs.size(), args.rates[k], secs,
                   args.seed + 1000 + k, false);
      const std::string key = "rung" + std::to_string(k);
      rep.value(key + ".server_cpu_ms", svc.server->cpu_ms() - cpu0);
      rung_done = true;
      if (speed.joinable()) speed.join();
      for (double ms : speed_ms) rep.sample("speed_ms", ms);
      record_rung(rep, key, reqs);
      rep.value(key + ".rate", args.rates[k]);
      rep.value(key + ".seconds", secs);
      tally(rep, reqs, same);
    }
  }
  const double rss = svc.server->peak_rss_mb();
  for (Worker& w : svc.workers) {
    rep.add("net.retries", static_cast<double>(w.client->overload_retries()));
  }
  svc.stop();
  rep.value("peak_rss_mb", rss);
  rep.value("nominal", args.nominal);
  rep.gate("wire_equals_inproc", same,
           "every wire result equals net::result_json(diagnose()) in process");
}

}  // namespace perfbench
