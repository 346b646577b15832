#pragma once
// Raw measurements of one benchmark run, handed to run.py as one JSON
// file: scalar values, sample series, text facts and correctness gates.
// All statistics (medians, tail percentiles, backlog detection, layer
// self times) are computed on the Python side from these raw numbers.

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

class Report {
 public:
  void value(const std::string& key, double v) { values_[key] = v; }
  void add(const std::string& key, double v) { values_[key] += v; }
  void sample(const std::string& key, double v) { series_[key].push_back(v); }
  void text(const std::string& key, std::string v) { text_[key] = std::move(v); }

  /// Records a correctness gate; a failed gate fails the run.
  void gate(const std::string& name, bool ok, const std::string& detail) {
    gates_.push_back({name, ok, detail});
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    scanpower::JsonWriter j(out, /*indent=*/0);
    j.begin_object();
    j.begin_object("values");
    for (const auto& [k, v] : values_) j.field(k, v);
    j.end_object();
    j.begin_object("series");
    for (const auto& [k, vs] : series_) {
      j.begin_array(k);
      for (double v : vs) j.value(v);
      j.end_array();
    }
    j.end_object();
    j.begin_object("text");
    for (const auto& [k, v] : text_) j.field(k, v);
    j.end_object();
    j.begin_array("gates");
    for (const Gate& g : gates_) {
      j.begin_object();
      j.field("name", g.name);
      j.field("ok", g.ok);
      j.field("detail", g.detail);
      j.end_object();
    }
    j.end_array();
    j.end_object();
    out << "\n";
  }

 private:
  struct Gate {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, std::string> text_;
  std::vector<Gate> gates_;
};

/// Peak resident set (VmHWM) of a process in MB, or 0 if unreadable.
double peak_rss_mb(const std::string& pid = "self");

}  // namespace perfbench
