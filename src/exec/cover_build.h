// The CoverBuild stage: the approximate trajectory covers T̂C of Sec. 5,
// packaged as a shareable unit.
//
// Given (instance p, τ): for every cluster representative r_i,
//   T̂C(r_i) = { T_j ∈ TL(g_i) ∪ TL(neighbors) : d̂_r(T_j, r_i) ≤ τ },
//   d̂_r(T_j, r_i) = d_r(T_j, c_j) + d_r(c_j, c_i) + d_r(c_i, r_i)   (Eq. 9)
// (minimum estimate when T_j is reachable through several clusters),
// wrapped in a tops::CoverageIndex over the representatives so the
// unchanged solver family runs on it. d̂_r ≥ d_r, so T̂C ⊆ TC and the
// Theorem 7 bounds hold.
//
// A BuiltCover depends only on (instance, τ) and the immutable corpus —
// not on k, ψ, FM, or existing services — which is exactly why the
// executor shares one build across every plan with the same CoverKey and
// the serving layer caches it per snapshot version (serve/cover_cache.h).
// Construction is deterministic at every thread count (the per-thread
// scratch never changes the covers, and every list is sorted on its own),
// so a shared cover is bit-identical to a per-query rebuild.
#ifndef NETCLUS_EXEC_COVER_BUILD_H_
#define NETCLUS_EXEC_COVER_BUILD_H_

#include <cstdint>
#include <vector>

#include "netclus/multi_index.h"
#include "tops/coverage.h"
#include "tops/site_set.h"
#include "traj/trajectory_store.h"

namespace netclus::exec {

/// One built clustered-space cover: the CoverageIndex over representatives
/// plus the representative SiteId per clustered-space index, with its build
/// cost so sharers can report amortized attribution.
struct BuiltCover {
  tops::CoverageIndex approx;
  std::vector<tops::SiteId> rep_sites;
  double build_seconds = 0.0;
  /// The two phases of build_seconds: the parallel TL traversal that
  /// computes and sorts each T̂C list, and the TC -> SC transpose.
  double traverse_seconds = 0.0;
  double transpose_seconds = 0.0;
  /// approx.MemoryBytes() + the rep_sites footprint — the transient bytes
  /// a non-shared query would have charged.
  uint64_t bytes = 0;
};

/// Builds T̂C for `instance` at `tau_m` over the current corpus. `threads`
/// follows the library convention (0 = NETCLUS_THREADS default); the
/// result is identical at any thread count.
BuiltCover BuildCover(const index::MultiIndex& index,
                      const traj::TrajectoryStore& store, double tau_m,
                      size_t instance, uint32_t threads);

}  // namespace netclus::exec

#endif  // NETCLUS_EXEC_COVER_BUILD_H_
