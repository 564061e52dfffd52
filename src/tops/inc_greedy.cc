#include "tops/inc_greedy.h"

#include <algorithm>

#include "tops/scored_cover.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace netclus::tops {

namespace {

// A heap entry: an upper bound on the site's marginal, fresh when it was
// computed in the current round.
struct Candidate {
  double bound;
  double weight;
  SiteId site;
  uint32_t round;  ///< round the bound was computed in; 0 = never
};

// Heap order: true when `a` ranks below `b` under (bound, weight, id), the
// order Algorithm 1 breaks ties by (Sec. 3.3).
bool RanksBelow(const Candidate& a, const Candidate& b) {
  return a.bound < b.bound ||
         (a.bound == b.bound &&
          (a.weight < b.weight || (a.weight == b.weight && a.site < b.site)));
}

}  // namespace

Selection IncGreedy(const CoverageIndex& coverage, const PreferenceFunction& psi,
                    const GreedyConfig& config) {
  NC_CHECK(!coverage.oom()) << "IncGreedy on an OOM coverage index";
  util::WallTimer timer;
  Selection result;
  ScoredCover state(coverage, psi, util::ResolveThreads(config.threads));
  const size_t n = coverage.num_sites();

  std::vector<uint8_t> selected(n, 0);
  double total = 0.0;
  for (SiteId es : config.existing_services) {
    NC_CHECK_LT(es, n);
    selected[es] = 1;
    total += state.Apply(es);
  }
  result.base_utility = total;

  // Every bound starts at the site weight, which no marginal exceeds, and
  // stale: the first round re-scores a top before it can be picked.
  std::vector<Candidate> heap;
  heap.reserve(n);
  for (SiteId s = 0; s < n; ++s) {
    if (selected[s]) continue;
    const double weight = state.Weight(s);
    heap.push_back({weight, weight, s, 0});
  }
  std::make_heap(heap.begin(), heap.end(), RanksBelow);

  const size_t k = std::min<size_t>(config.k, n);
  uint32_t round = 1;
  while (result.sites.size() < k && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), RanksBelow);
    Candidate& top = heap.back();
    if (top.round != round) {
      // Stale: re-score and sift back in.
      top.bound = state.Marginal(top.site);
      top.round = round;
      std::push_heap(heap.begin(), heap.end(), RanksBelow);
      continue;
    }
    const double gain = state.Apply(top.site);
    total += gain;
    result.sites.push_back(top.site);
    result.marginal_gains.push_back(gain);
    heap.pop_back();
    ++round;
  }
  result.utility = total;
  result.solve_seconds = timer.Seconds();
  return result;
}

double UtilityOf(const CoverageIndex& coverage, const PreferenceFunction& psi,
                 const std::vector<SiteId>& selection) {
  std::vector<double> utility(coverage.num_trajectories(), 0.0);
  const double tau = coverage.tau_m();
  for (SiteId s : selection) {
    coverage.TC(s).ForEach([&](const CoverEntry& e) {
      utility[e.id] = std::max(utility[e.id], psi.Score(e.dr_m, tau));
    });
  }
  double total = 0.0;
  for (double u : utility) total += u;
  return total;
}

}  // namespace netclus::tops
