#pragma once
// Shared helpers for the example command-line front ends (diag_cli,
// diag_server, flow_cli, min_leakage_vector): uniform "--flag <value>"
// parsing and design loading, so every CLI agrees on conventions instead
// of each re-implementing its own strcmp/atoi ladder. Numeric values are
// parsed strictly: the whole token must be a number.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>
#include <type_traits>

#include "atpg/packed_sim.hpp"
#include "atpg/sim_backend.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog_io.hpp"
#include "techmap/techmap.hpp"
#include "util/log.hpp"

namespace scanpower::cli {

/// Parses a --log-level value; a bad name is a fatal usage error.
inline LogLevel parse_log_level(const char* v) {
  if (std::strcmp(v, "debug") == 0) return LogLevel::Debug;
  if (std::strcmp(v, "info") == 0) return LogLevel::Info;
  if (std::strcmp(v, "warn") == 0) return LogLevel::Warn;
  if (std::strcmp(v, "error") == 0) return LogLevel::Error;
  if (std::strcmp(v, "off") == 0) return LogLevel::Off;
  std::fprintf(stderr,
               "error: --log-level must be debug, info, warn, error or off "
               "(got \"%s\")\n",
               v);
  std::exit(2);
}

/// True iff argv[i] is exactly `name` (a value-less flag).
inline bool flag(char** argv, int i, const char* name) {
  return std::strcmp(argv[i], name) == 0;
}

/// Matches "--name <value>": when argv[i] equals `name` the value is
/// consumed (advancing `i`) and stored in `out`. A trailing flag with no
/// value is a fatal usage error -- legacy parsers silently fell through
/// to the generic usage message.
inline bool value_flag(int argc, char** argv, int& i, const char* name,
                       const char*& out) {
  if (std::strcmp(argv[i], name) != 0) return false;
  if (i + 1 >= argc) {
    std::fprintf(stderr, "error: %s requires a value\n", name);
    std::exit(2);
  }
  out = argv[++i];
  return true;
}

/// Parses a whole numeric token with std::from_chars: "4x", "four" or an
/// empty value is a fatal usage error naming the flag, never a silent 0
/// or a silently truncated value. Base 16 accepts an optional 0x prefix.
template <typename T>
inline T parse_number(const char* name, const char* v, int base = 10) {
  T out{};
  const char* begin = v;
  if (base == 16 && v[0] == '0' && (v[1] == 'x' || v[1] == 'X')) begin += 2;
  const char* end = v + std::strlen(v);
  std::from_chars_result r;
  if constexpr (std::is_floating_point_v<T>) {
    r = std::from_chars(begin, end, out);
  } else {
    r = std::from_chars(begin, end, out, base);
  }
  if (begin == end || r.ec != std::errc() || r.ptr != end) {
    std::fprintf(stderr, "error: %s must be %s (got \"%s\")\n", name,
                 std::is_floating_point_v<T> ? "a number"
                 : base == 16                ? "a hexadecimal integer"
                 : std::is_unsigned_v<T>     ? "a non-negative integer"
                                             : "an integer",
                 v);
    std::exit(2);
  }
  return out;
}

template <typename T>
  requires std::is_arithmetic_v<T>
inline bool value_flag(int argc, char** argv, int& i, const char* name,
                       T& out) {
  const char* v = nullptr;
  if (!value_flag(argc, argv, i, name, v)) return false;
  out = parse_number<T>(name, v);
  return true;
}

/// Matches "--name <w>" for a packed block width; a width outside the
/// valid set is a fatal usage error that lists the set.
inline bool block_words_flag(int argc, char** argv, int& i, const char* name,
                             int& out) {
  if (!value_flag(argc, argv, i, name, out)) return false;
  try {
    const char* prog = std::strrchr(argv[0], '/');
    check_block_words(prog != nullptr ? prog + 1 : argv[0], name, out);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
  return true;
}

/// Matches "--name <backend>" (auto/scalar/avx2/avx512); a bad name is a
/// fatal usage error listing the valid ones.
inline bool backend_flag(int argc, char** argv, int& i, const char* name,
                         SimBackend& out) {
  const char* v = nullptr;
  if (!value_flag(argc, argv, i, name, v)) return false;
  if (!parse_backend(v, &out)) {
    std::fprintf(stderr,
                 "error: %s must be auto, scalar, avx2 or avx512 "
                 "(got \"%s\")\n",
                 name, v);
    std::exit(2);
  }
  return true;
}

/// Hexadecimal variant of value_flag (e.g. --misr-poly); an optional 0x
/// prefix is accepted.
inline bool hex_value_flag(int argc, char** argv, int& i, const char* name,
                           std::uint64_t& out) {
  const char* v = nullptr;
  if (!value_flag(argc, argv, i, name, v)) return false;
  out = parse_number<std::uint64_t>(name, v, 16);
  return true;
}

inline bool is_verilog_path(const std::string& path) {
  return path.size() > 2 && path.rfind(".v") == path.size() - 2;
}

/// Loads a .bench / structural .v design (picked by extension) and, when
/// `do_map` is set, maps it onto the paper's NAND/NOR/INV library.
inline Netlist load_design(const std::string& path, bool do_map) {
  Netlist nl = is_verilog_path(path) ? parse_verilog_file(path)
                                     : parse_bench_file(path);
  if (do_map && !is_mapped(nl)) nl = map_to_nand_nor_inv(nl);
  return nl;
}

}  // namespace scanpower::cli
