// Differential fuzz harness for the LEES envelope index (DESIGN.md §18).
//
// Each input decodes into one scenario (tests/lees_differential.hpp): a
// population of evolving, split and static subscriptions over affine and
// nonlinear `t` programs, then publications, clock jumps, removals and
// variable updates. Indexed LEES, the paper's scan-loop LEES and the
// engine-free Subscription::matches oracle must deliver to the same
// destinations on every publication; any disagreement aborts with the
// scenario state.
#include <cstdio>
#include <cstdlib>

#include "fuzz_driver.hpp"
#include "lees_differential.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string bad = evps::testutil::run_lees_scenario(data, size);
  if (!bad.empty()) {
    std::fprintf(stderr, "LEES envelope index disagrees with the oracle %s\n", bad.c_str());
    std::abort();
  }
  return 0;
}
