// TOPS extensions and variants (Sec. 7).
//
//  * TOPS-COST (7.1): site costs + budget B; cost-effectiveness greedy with
//    the s_max guard of Khuller et al., bound (1 - 1/e)/2.
//  * TOPS-CAPACITY (7.2): per-site trajectory capacity; a site's marginal is
//    the sum of its top-cap per-trajectory gains, and selection serves
//    exactly those trajectories.
//  * TOPS4 market share (7.4): smallest Q covering >= β |T|; set-cover
//    greedy, bound 1 + ln n.
// (TOPS1/TOPS2/TOPS3 are preference-function choices, see preference.h;
// existing services are a GreedyConfig field, see inc_greedy.h.)
#ifndef NETCLUS_TOPS_VARIANTS_H_
#define NETCLUS_TOPS_VARIANTS_H_

#include <cstdint>
#include <vector>

#include "tops/inc_greedy.h"
#include "util/rng.h"

namespace netclus::tops {

// Every solver here scores ψ once per solve and scans candidates in
// parallel chunks whose winners fold left to right with the serial rule
// (strict `>`, the first site wins ties), so answers are bit-identical at
// every thread count. `threads` (0 = NETCLUS_THREADS default) sets the
// workers; the Sec. 7.4/7.5 solvers run at the NETCLUS_THREADS default.

struct CostConfig {
  double budget = 5.0;
  std::vector<double> site_costs;  ///< size = num_sites, all > 0
  uint32_t threads = 0;
};

struct CostResult {
  Selection selection;
  double total_cost = 0.0;
  bool used_single_site_guard = false;  ///< s_max beat the greedy set
};

/// TOPS-COST greedy (budgeted maximum coverage adaptation).
CostResult CostGreedy(const CoverageIndex& coverage,
                      const PreferenceFunction& psi, const CostConfig& config);

/// Draws per-site costs ~ Normal(mean, stddev), clamped to `min_cost`
/// (Sec. 8.7 uses mean 1.0, stddev in [0,1], min 0.1).
std::vector<double> DrawNormalCosts(size_t num_sites, double mean,
                                    double stddev, double min_cost,
                                    uint64_t seed);

struct CapacityConfig {
  uint32_t k = 5;
  std::vector<double> site_capacities;  ///< max trajectories per site
  uint32_t threads = 0;
};

struct CapacityResult {
  Selection selection;
  /// Trajectories actually served per selected site (≤ its capacity).
  std::vector<uint32_t> served_counts;
};

/// TOPS-CAPACITY greedy.
CapacityResult CapacityGreedy(const CoverageIndex& coverage,
                              const PreferenceFunction& psi,
                              const CapacityConfig& config);

/// Draws per-site capacities ~ Normal(mean, stddev), clamped to >= 1.
std::vector<double> DrawNormalCapacities(size_t num_sites, double mean,
                                         double stddev, uint64_t seed);

struct CostCapacityConfig {
  double budget = 5.0;
  std::vector<double> site_costs;       ///< size = num_sites, all > 0
  std::vector<double> site_capacities;  ///< size = num_sites
};

/// The Sec. 7.5 combined extension: budgeted selection where each chosen
/// site additionally serves at most cap(s) trajectories. Greedy on capped
/// marginal gain per unit cost, with the single-site guard.
CostResult CostCapacityGreedy(const CoverageIndex& coverage,
                              const PreferenceFunction& psi,
                              const CostCapacityConfig& config);

struct MarketShareConfig {
  double beta = 0.5;        ///< fraction of trajectories to capture
  uint32_t max_sites = 0;   ///< safety cap; 0 = unlimited
};

struct MarketShareResult {
  Selection selection;
  double covered_fraction = 0.0;
  bool reached_target = false;
};

/// TOPS4: minimum services for a fixed market share (binary ψ).
MarketShareResult MarketShareGreedy(const CoverageIndex& coverage,
                                    const MarketShareConfig& config);

}  // namespace netclus::tops

#endif  // NETCLUS_TOPS_VARIANTS_H_
