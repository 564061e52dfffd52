// FM-sketch accelerated greedy for the binary TOPS instance (Sec. 3.5).
//
// Each site's trajectory cover TC(s) is summarized as an FM sketch
// (O(log m) bits instead of an O(m) list); the marginal utility of s over
// the selected set Q is estimate(sketch(Q) | sketch(s)) - estimate(sketch(Q)).
// The scan over candidates is early-terminated: sites are kept sorted by
// their standalone utility, which upper-bounds any marginal (submodularity),
// so the scan stops at the first site whose standalone utility cannot beat
// the best marginal found so far.
#ifndef NETCLUS_TOPS_FM_GREEDY_H_
#define NETCLUS_TOPS_FM_GREEDY_H_

#include <cstdint>

#include "tops/inc_greedy.h"

namespace netclus::tops {

struct FmGreedyConfig {
  uint32_t k = 5;
  uint32_t num_sketches = 30;  ///< the paper's f (Table 8 sweeps this)
  uint64_t sketch_seed = 0x5eedf00d5eedf00dULL;
  /// Worker threads for the sketch build (0 = NETCLUS_THREADS default).
  /// Each sketch is an OR of per-trajectory masks, so it is identical at
  /// every thread count; the greedy scan itself is serial.
  uint32_t threads = 0;
};

struct FmGreedyResult {
  Selection selection;          ///< utility = exact re-evaluation of sites
  double estimated_utility = 0.0;  ///< the sketch's own estimate
  double sketch_build_seconds = 0.0;
  uint64_t union_operations = 0;   ///< sketch unions performed (early
                                   ///< termination effectiveness metric)
};

/// Runs FM-greedy. ψ is implicitly binary (Def. 3); the coverage index
/// supplies TC. The reported Selection::utility is the exact binary utility
/// of the chosen sites.
FmGreedyResult FmGreedy(const CoverageIndex& coverage,
                        const FmGreedyConfig& config);

}  // namespace netclus::tops

#endif  // NETCLUS_TOPS_FM_GREEDY_H_
