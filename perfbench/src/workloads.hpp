#pragma once
// The benchmark's workloads. Each one fills a Report with raw samples;
// run.py turns them into the metrics BENCHMARK.json names.

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out;       ///< raw report path
  std::string spans;     ///< span JSONL path (traced runs)
  std::string work_dir;  ///< generated inputs (.bench files, logs)
  std::string server;    ///< diag_server binary (diag_serve)

  std::string circuit;              ///< flow workloads: benchgen profile
  std::size_t power_patterns = 16;  ///< flow_power: random patterns
  std::size_t atpg_inputs = 8;      ///< flow_atpg: ATPG seeds per run
  int setups = 5;                   ///< diag_serve: set-ups timed per run

  // diag_serve
  std::vector<std::string> designs;
  std::uint64_t corpus_seed = 1;  ///< evidence corpus and pattern sets
  std::size_t diag_patterns = 128;
  std::vector<int> per_kind;  ///< corpus entries per evidence kind, per design
  std::vector<double> rates;   ///< ladder, requests/s
  std::vector<double> shares;  ///< share of --seconds each rung runs
  int nominal = 0;             ///< ladder index of the nominal rate
};

void run_flow_atpg(const Args& args, Report& rep, SpanRecorder& rec);
void run_flow_power(const Args& args, Report& rep, SpanRecorder& rec);
void run_diag_serve(const Args& args, Report& rep, SpanRecorder& rec);

}  // namespace perfbench
