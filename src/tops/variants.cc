#include "tops/variants.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "tops/scored_cover.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace netclus::tops {

namespace {

size_t CapOf(double capacity) {
  return static_cast<size_t>(std::max(0.0, std::floor(capacity)));
}

// A scan's winner: the first site holding the largest value.
struct Pick {
  SiteId site = kInvalidSite;
  double value = 0.0;
};

// Scans sites [0, n) for the first site with the largest value(s, &gains),
// skipping sites for which it returns nullopt (`gains` is per-chunk
// scratch). Chunks keep their first strict maximum and the chunk winners
// are folded left to right under the same rule, so the pick is the serial
// scan's at every thread count and chunk layout.
template <typename ValueFn>
Pick ArgMaxScan(unsigned threads, size_t n, const ValueFn& value) {
  const auto better = [](const Pick& challenger, const Pick& best) {
    return challenger.site != kInvalidSite &&
           (best.site == kInvalidSite || challenger.value > best.value);
  };
  return util::ParallelReduce<Pick>(
      threads, n, Pick{},
      [&](size_t begin, size_t end) {
        Pick best;
        std::vector<double> gains;
        for (size_t i = begin; i < end; ++i) {
          const SiteId s = static_cast<SiteId>(i);
          const std::optional<double> v = value(s, &gains);
          if (v && better(Pick{s, *v}, best)) best = Pick{s, *v};
        }
        return best;
      },
      [&](Pick acc, Pick chunk) { return better(chunk, acc) ? chunk : acc; },
      util::CoarseGrain(threads, n, 8));
}

}  // namespace

CostResult CostGreedy(const CoverageIndex& coverage,
                      const PreferenceFunction& psi, const CostConfig& config) {
  NC_CHECK(!coverage.oom());
  NC_CHECK_EQ(config.site_costs.size(), coverage.num_sites());
  util::WallTimer timer;
  const unsigned threads = util::ResolveThreads(config.threads);
  CostResult result;
  ScoredCover state(coverage, psi, threads);

  const size_t n = coverage.num_sites();
  std::vector<uint8_t> excluded(n, 0);
  double spent = 0.0;

  // Greedy on marginal-gain per unit cost, pruning unaffordable sites.
  while (true) {
    const double remaining = config.budget - spent;
    const Pick best = ArgMaxScan(
        threads, n,
        [&](SiteId s, std::vector<double>*) -> std::optional<double> {
          if (excluded[s]) return std::nullopt;
          const double cost = config.site_costs[s];
          NC_CHECK_GT(cost, 0.0);
          if (cost > remaining) {
            excluded[s] = 1;  // pruned from S per Sec. 7.1
            return std::nullopt;
          }
          return state.Marginal(s) / cost;
        });
    if (best.site == kInvalidSite || best.value <= 0.0) break;
    const double gain = state.Apply(best.site);
    excluded[best.site] = 1;
    spent += config.site_costs[best.site];
    result.selection.sites.push_back(best.site);
    result.selection.marginal_gains.push_back(gain);
    result.selection.utility += gain;
  }
  result.total_cost = spent;

  // The s_max guard: the single affordable site with maximal standalone
  // utility; return whichever of {greedy set, {s_max}} is better. This is
  // what lifts the bound to (1 - 1/e) / 2 [Khuller et al. 24].
  const Pick smax = ArgMaxScan(
      threads, n, [&](SiteId s, std::vector<double>*) -> std::optional<double> {
        if (config.site_costs[s] > config.budget) return std::nullopt;
        return state.Weight(s);
      });
  if (smax.site != kInvalidSite && smax.value > result.selection.utility) {
    result.used_single_site_guard = true;
    result.selection.sites = {smax.site};
    result.selection.marginal_gains = {smax.value};
    result.selection.utility = smax.value;
    result.total_cost = config.site_costs[smax.site];
  }
  result.selection.solve_seconds = timer.Seconds();
  return result;
}

std::vector<double> DrawNormalCosts(size_t num_sites, double mean,
                                    double stddev, double min_cost,
                                    uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> costs(num_sites);
  for (double& c : costs) c = std::max(min_cost, rng.Normal(mean, stddev));
  return costs;
}

CapacityResult CapacityGreedy(const CoverageIndex& coverage,
                              const PreferenceFunction& psi,
                              const CapacityConfig& config) {
  NC_CHECK(!coverage.oom());
  NC_CHECK_EQ(config.site_capacities.size(), coverage.num_sites());
  util::WallTimer timer;
  const unsigned threads = util::ResolveThreads(config.threads);
  CapacityResult result;
  ScoredCover state(coverage, psi, threads);
  const size_t n = coverage.num_sites();
  std::vector<uint8_t> selected(n, 0);

  const uint32_t k =
      static_cast<uint32_t>(std::min<size_t>(config.k, n));
  for (uint32_t step = 0; step < k; ++step) {
    // Capped marginal: sum of the top-cap per-trajectory gains (Sec 7.2:
    // α_i = min(|TC(s_i)|, cap(s_i))).
    const Pick best = ArgMaxScan(
        threads, n,
        [&](SiteId s, std::vector<double>* gains) -> std::optional<double> {
          if (selected[s]) return std::nullopt;
          return state.CappedMarginal(s, CapOf(config.site_capacities[s]),
                                      gains);
        });
    if (best.site == kInvalidSite) break;
    selected[best.site] = 1;

    // Serve the top-cap trajectories of the chosen site.
    uint32_t served = 0;
    const double gain = state.ApplyCapped(
        best.site, CapOf(config.site_capacities[best.site]), &served);
    result.selection.sites.push_back(best.site);
    result.selection.marginal_gains.push_back(gain);
    result.selection.utility += gain;
    result.served_counts.push_back(served);
  }
  result.selection.solve_seconds = timer.Seconds();
  return result;
}

CostResult CostCapacityGreedy(const CoverageIndex& coverage,
                              const PreferenceFunction& psi,
                              const CostCapacityConfig& config) {
  NC_CHECK(!coverage.oom());
  NC_CHECK_EQ(config.site_costs.size(), coverage.num_sites());
  NC_CHECK_EQ(config.site_capacities.size(), coverage.num_sites());
  util::WallTimer timer;
  const unsigned threads = util::ResolveThreads(0);
  CostResult result;
  ScoredCover state(coverage, psi, threads);
  const size_t n = coverage.num_sites();
  std::vector<uint8_t> excluded(n, 0);
  double spent = 0.0;

  while (true) {
    const double remaining = config.budget - spent;
    const Pick best = ArgMaxScan(
        threads, n,
        [&](SiteId s, std::vector<double>* gains) -> std::optional<double> {
          if (excluded[s]) return std::nullopt;
          const double cost = config.site_costs[s];
          NC_CHECK_GT(cost, 0.0);
          if (cost > remaining) {
            excluded[s] = 1;
            return std::nullopt;
          }
          return state.CappedMarginal(s, CapOf(config.site_capacities[s]),
                                      gains) /
                 cost;
        });
    if (best.site == kInvalidSite || best.value <= 0.0) break;
    // Serve the chosen site's top-cap trajectories.
    uint32_t served = 0;
    const double gain = state.ApplyCapped(
        best.site, CapOf(config.site_capacities[best.site]), &served);
    excluded[best.site] = 1;
    spent += config.site_costs[best.site];
    result.selection.sites.push_back(best.site);
    result.selection.marginal_gains.push_back(gain);
    result.selection.utility += gain;
  }
  result.total_cost = spent;

  // Single-site guard against the ratio trap, with the capacity cap applied
  // to the standalone utilities as well.
  const Pick smax = ArgMaxScan(
      threads, n,
      [&](SiteId s, std::vector<double>* gains) -> std::optional<double> {
        if (config.site_costs[s] > config.budget) return std::nullopt;
        return state.CappedWeight(s, CapOf(config.site_capacities[s]), gains);
      });
  if (smax.site != kInvalidSite && smax.value > result.selection.utility) {
    result.used_single_site_guard = true;
    result.selection.sites = {smax.site};
    result.selection.marginal_gains = {smax.value};
    result.selection.utility = smax.value;
    result.total_cost = config.site_costs[smax.site];
  }
  result.selection.solve_seconds = timer.Seconds();
  return result;
}

std::vector<double> DrawNormalCapacities(size_t num_sites, double mean,
                                         double stddev, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> caps(num_sites);
  for (double& c : caps) c = std::max(1.0, rng.Normal(mean, stddev));
  return caps;
}

MarketShareResult MarketShareGreedy(const CoverageIndex& coverage,
                                    const MarketShareConfig& config) {
  NC_CHECK(!coverage.oom());
  NC_CHECK_GT(config.beta, 0.0);
  NC_CHECK_LE(config.beta, 1.0);
  util::WallTimer timer;
  const unsigned threads = util::ResolveThreads(0);
  MarketShareResult result;
  ScoredCover state(coverage, PreferenceFunction::Binary(), threads);
  const size_t n = coverage.num_sites();
  const size_t m = coverage.num_live_trajectories();
  const double target = config.beta * static_cast<double>(m);
  std::vector<uint8_t> selected(n, 0);

  double covered = 0.0;
  while (covered + 1e-9 < target) {
    if (config.max_sites != 0 &&
        result.selection.sites.size() >= config.max_sites) {
      break;
    }
    const Pick best = ArgMaxScan(
        threads, n, [&](SiteId s, std::vector<double>*) -> std::optional<double> {
          if (selected[s]) return std::nullopt;
          return state.Marginal(s);
        });
    if (best.site == kInvalidSite || best.value <= 0.0) break;  // saturated
    selected[best.site] = 1;
    const double gain = state.Apply(best.site);
    covered += gain;
    result.selection.sites.push_back(best.site);
    result.selection.marginal_gains.push_back(gain);
  }
  result.selection.utility = covered;
  result.covered_fraction = m == 0 ? 0.0 : covered / static_cast<double>(m);
  result.reached_target = covered + 1e-9 >= target;
  result.selection.solve_seconds = timer.Seconds();
  return result;
}

}  // namespace netclus::tops
