// perfbench_runner: runs one benchmark workload and writes its raw
// measurements (and, traced, its spans) for run.py to turn into metrics.
//
//   perfbench_runner --workload flow_atpg|flow_power|diag_serve
//       --seed N --seconds S --trace 0|1 --out raw.json [--spans f.jsonl]
//       --work-dir DIR [--server path/to/diag_server]
//       [--circuit s510] [--atpg-inputs 8] [--power-patterns 16] [--setups 5]
//       [--designs s1423,s5378] [--corpus-seed 1] [--diag-patterns 128]
//       [--per-kind 30,20] [--rates 5,20,300] [--shares .6667,.2,.1]
//       [--nominal 0]
//
// run.py passes every knob from config.json.

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "atpg/sim_backend.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

namespace {

std::vector<std::string> split(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

std::vector<double> split_numbers(const std::string& s) {
  std::vector<double> out;
  for (const std::string& t : split(s)) out.push_back(std::strtod(t.c_str(), nullptr));
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload NAME --seed N --seconds S "
               "--trace 0|1 --out FILE --work-dir DIR [options]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  signal(SIGPIPE, SIG_IGN);
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--server") a.server = v;
    else if (k == "--circuit") a.circuit = v;
    else if (k == "--power-patterns") a.power_patterns = std::stoul(v);
    else if (k == "--atpg-inputs") a.atpg_inputs = std::stoul(v);
    else if (k == "--setups") a.setups = std::stoi(v);
    else if (k == "--designs") a.designs = split(v);
    else if (k == "--corpus-seed") a.corpus_seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--diag-patterns") a.diag_patterns = std::stoul(v);
    else if (k == "--per-kind") {
      for (double n : split_numbers(v)) a.per_kind.push_back(static_cast<int>(n));
    }
    else if (k == "--rates") a.rates = split_numbers(v);
    else if (k == "--shares") a.shares = split_numbers(v);
    else if (k == "--nominal") a.nominal = std::stoi(v);
    else return usage();
  }
  if (a.workload.empty() || a.out.empty() || a.work_dir.empty()) return usage();

  Report rep;
  rep.value("ctx.nproc", std::thread::hardware_concurrency());
  rep.text("ctx.backend_w4", scanpower::backend_name(scanpower::resolve_backend(
                                 scanpower::SimBackend::Auto, 4)));
  rep.text("ctx.compiler", __VERSION__);
  rep.text("ctx.build_type", PERFBENCH_BUILD_TYPE);
  SpanRecorder rec(a.trace);
  try {
    if (a.workload == "flow_atpg") {
      run_flow_atpg(a, rep, rec);
    } else if (a.workload == "flow_power") {
      run_flow_power(a, rep, rec);
    } else if (a.workload == "diag_serve") {
      run_diag_serve(a, rep, rec);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", a.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
  if (a.workload != "diag_serve") rep.value("peak_rss_mb", peak_rss_mb());
  rep.write(a.out);
  if (a.trace && !a.spans.empty()) rec.write_jsonl(a.spans);
  return 0;
}
