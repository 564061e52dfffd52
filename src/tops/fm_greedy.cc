#include "tops/fm_greedy.h"

#include <algorithm>
#include <numeric>

#include "sketch/fm_sketch.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace netclus::tops {

FmGreedyResult FmGreedy(const CoverageIndex& coverage,
                        const FmGreedyConfig& config) {
  NC_CHECK(!coverage.oom()) << "FmGreedy on an OOM coverage index";
  FmGreedyResult result;
  const size_t n = coverage.num_sites();

  // Build one sketch per site from its trajectory cover. A trajectory's
  // bits depend only on (trajectory, seed), so each trajectory is hashed
  // once into a mask and the masks are ORed into the sketches of the sites
  // covering it. OR is exact, so every sketch equals the one Add builds.
  util::WallTimer build_timer;
  const unsigned threads = util::ResolveThreads(config.threads);
  const sketch::FmSketch empty(config.num_sketches, config.sketch_seed);
  const size_t f = empty.num_copies();
  const size_t m = coverage.num_trajectories();
  std::vector<uint32_t> masks(m * f);
  util::ParallelFor(
      threads, m,
      [&](size_t begin, size_t end) {
        for (size_t t = begin; t < end; ++t) {
          if (!coverage.SC(static_cast<traj::TrajId>(t)).empty()) {
            empty.ElementMask(t, &masks[t * f]);
          }
        }
      },
      util::CoarseGrain(threads, m, 8));
  std::vector<sketch::FmSketch> sketches(n, empty);
  std::vector<double> standalone(n);
  util::ParallelFor(
      threads, n,
      [&](size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s) {
          for (const CoverEntry& e : coverage.TC(static_cast<SiteId>(s))) {
            sketches[s].AddMask(&masks[size_t{e.id} * f]);
          }
          // Standalone utility estimates, used both for the scan order and
          // as the submodular upper bound on marginals.
          standalone[s] = sketches[s].Estimate();
        }
      },
      util::CoarseGrain(threads, n, 8));
  result.sketch_build_seconds = build_timer.Seconds();

  std::vector<SiteId> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](SiteId a, SiteId b) {
    return standalone[a] > standalone[b] || (standalone[a] == standalone[b] && a < b);
  });

  util::WallTimer solve_timer;
  sketch::FmSketch base(config.num_sketches, config.sketch_seed);
  double base_estimate = 0.0;
  std::vector<uint8_t> selected(n, 0);

  const uint32_t k = static_cast<uint32_t>(std::min<size_t>(config.k, n));
  for (uint32_t step = 0; step < k; ++step) {
    double best_marginal = -1.0;
    SiteId best = kInvalidSite;
    for (SiteId s : order) {
      if (selected[s]) continue;
      // Early termination: standalone utility bounds the marginal; the
      // order is descending, so every later site is bounded too.
      if (best != kInvalidSite && standalone[s] <= best_marginal) break;
      const double union_estimate = base.UnionEstimate(sketches[s]);
      ++result.union_operations;
      const double marginal = union_estimate - base_estimate;
      if (marginal > best_marginal) {
        best_marginal = marginal;
        best = s;
      }
    }
    if (best == kInvalidSite) break;
    selected[best] = 1;
    base.Merge(sketches[best]);
    base_estimate = base.Estimate();
    result.selection.sites.push_back(best);
    result.selection.marginal_gains.push_back(best_marginal);
  }
  result.selection.solve_seconds = solve_timer.Seconds();
  result.estimated_utility = base_estimate;
  result.selection.utility = UtilityOf(coverage, PreferenceFunction::Binary(),
                                       result.selection.sites);
  return result;
}

}  // namespace netclus::tops
