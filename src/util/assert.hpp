#pragma once
// Internal invariant checking and recoverable-error helpers.
//
// SP_ASSERT(cond, msg)  -- internal invariant; aborts with a diagnostic.
//                          Violations indicate a bug in this library.
// SP_CHECK(cond, msg)   -- recoverable precondition on user-supplied data;
//                          throws scanpower::Error so callers can handle it.

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace scanpower {

/// Base exception for all recoverable errors raised by the library
/// (malformed netlists, bad parameters, inconsistent scan configurations).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised by parsers on malformed input files.
class ParseError : public Error {
 public:
  ParseError(const std::string& file, int line, const std::string& what)
      : Error(file + ":" + std::to_string(line) + ": " + what),
        file_(file),
        line_(line) {}
  const std::string& file() const { return file_; }
  int line() const { return line_; }

 private:
  std::string file_;
  int line_;
};

// Out of line (util/assert.cpp), so a TU that asserts only emits a call:
// a TU compiled with -mavx* must define nothing with external linkage
// (sim_kernels.hpp), and an inline copy of this function would be one.
// The const char* overload takes SP_ASSERT's usual string-literal message
// without building a std::string in the caller. `cold` keeps the failure
// path out of the hot loops that assert: a noreturn call alone does not
// make GCC move it to the .cold section, and measured diag_serve CPU per
// request rose ~4% without it.
[[noreturn, gnu::cold]] void assert_fail(const char* expr, const char* file,
                                         int line, const char* msg);
[[noreturn, gnu::cold]] void assert_fail(const char* expr, const char* file,
                                         int line, const std::string& msg);

}  // namespace scanpower

#define SP_ASSERT(cond, msg)                                         \
  do {                                                               \
    if (!(cond)) ::scanpower::assert_fail(#cond, __FILE__, __LINE__, (msg)); \
  } while (0)

#define SP_CHECK(cond, msg)                    \
  do {                                         \
    if (!(cond)) throw ::scanpower::Error(msg); \
  } while (0)
