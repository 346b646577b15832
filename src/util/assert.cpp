#include "util/assert.hpp"

#include <cstdio>
#include <cstdlib>

namespace scanpower {

void assert_fail(const char* expr, const char* file, int line,
                 const char* msg) {
  std::fprintf(stderr,
               "scanpower: internal invariant violated: %s\n  at %s:%d\n  %s\n",
               expr, file, line, msg);
  std::abort();
}

void assert_fail(const char* expr, const char* file, int line,
                 const std::string& msg) {
  assert_fail(expr, file, line, msg.c_str());
}

}  // namespace scanpower
