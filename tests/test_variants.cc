#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <numeric>
#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "sketch/fm_sketch.h"
#include "test_helpers.h"
#include "tops/coverage.h"
#include "tops/fm_greedy.h"
#include "tops/inc_greedy.h"
#include "tops/variants.h"
#include "util/rng.h"

namespace netclus::tops {
namespace {

CoverageIndex RandomInstance(uint64_t seed, uint32_t num_sites,
                             uint32_t num_trajs, double tau_m = 600.0) {
  graph::RoadNetwork net = test::MakeGridNetwork(10, 10, 120.0);
  traj::TrajectoryStore store(&net);
  test::FillRandomWalks(&store, num_trajs, 4, 12, seed);
  SiteSet sites = SiteSet::SampleNodes(net, num_sites, seed + 1);
  CoverageConfig cc;
  cc.tau_m = tau_m;
  return CoverageIndex::Build(store, sites, cc);
}

// --- TOPS-COST ---------------------------------------------------------------

TEST(CostGreedy, RespectsBudget) {
  const CoverageIndex cov = RandomInstance(1, 20, 60);
  CostConfig config;
  config.budget = 3.0;
  config.site_costs = DrawNormalCosts(20, 1.0, 0.5, 0.1, 2);
  const CostResult got = CostGreedy(cov, PreferenceFunction::Binary(), config);
  EXPECT_LE(got.total_cost, config.budget + 1e-9);
  double sum = 0.0;
  for (SiteId s : got.selection.sites) sum += config.site_costs[s];
  EXPECT_NEAR(sum, got.total_cost, 1e-9);
}

TEST(CostGreedy, UnitCostsWithBudgetKBehavesLikeTopsRelaxation) {
  const CoverageIndex cov = RandomInstance(3, 20, 60);
  const PreferenceFunction psi = PreferenceFunction::Binary();
  CostConfig config;
  config.budget = 5.0;
  config.site_costs.assign(20, 1.0);
  const CostResult cost = CostGreedy(cov, psi, config);
  GreedyConfig gc;
  gc.k = 5;
  const Selection greedy = IncGreedy(cov, psi, gc);
  // Unit costs and B = k: cost-effectiveness greedy ranks by marginal gain
  // like Inc-Greedy (Sec. 7.1's reduction). Tie-breaking rules differ, so
  // the utilities agree up to a small wobble rather than exactly.
  EXPECT_EQ(cost.selection.sites.size(), greedy.sites.size());
  EXPECT_NEAR(cost.selection.utility, greedy.utility, 0.03 * greedy.utility);
}

TEST(CostGreedy, SingleSiteGuardBeatsRatioTrap) {
  // The classic Khuller trap: one site with huge utility but cost = budget,
  // vs a cheap site with tiny utility and great ratio. The plain ratio
  // greedy takes the cheap site first and can't afford the big one; the
  // s_max guard must rescue the solution.
  std::vector<std::vector<CoverEntry>> tc(2);
  tc[0] = {{0, 0.0f}};  // cheap site covers 1 trajectory
  tc[1] = {{1, 0.0f}, {2, 0.0f}, {3, 0.0f}, {4, 0.0f}, {5, 0.0f}};
  const CoverageIndex cov = CoverageIndex::FromCovers(std::move(tc), 6, 6, 100.0);
  CostConfig config;
  config.budget = 1.0;
  config.site_costs = {0.01, 1.0};  // ratios: 100 vs 5
  const CostResult got = CostGreedy(cov, PreferenceFunction::Binary(), config);
  EXPECT_TRUE(got.used_single_site_guard);
  ASSERT_EQ(got.selection.sites.size(), 1u);
  EXPECT_EQ(got.selection.sites[0], 1u);
  EXPECT_NEAR(got.selection.utility, 5.0, 1e-9);
}

TEST(CostGreedy, HigherVarianceCostsRaiseUtility) {
  // Fig. 7a: with mean 1 and larger sigma, more cheap sites exist, so the
  // same budget buys more coverage.
  const CoverageIndex cov = RandomInstance(5, 30, 120);
  const PreferenceFunction psi = PreferenceFunction::Binary();
  double last = -1.0;
  double util_low = 0.0, util_high = 0.0;
  for (const double sigma : {0.0, 1.0}) {
    CostConfig config;
    config.budget = 5.0;
    config.site_costs = DrawNormalCosts(30, 1.0, sigma, 0.1, 7);
    const CostResult got = CostGreedy(cov, psi, config);
    if (sigma == 0.0) util_low = got.selection.utility;
    else util_high = got.selection.utility;
    last = got.selection.utility;
  }
  (void)last;
  EXPECT_GE(util_high, util_low - 1e-9);
}

TEST(DrawNormalCosts, RespectsFloorAndDeterminism) {
  const auto a = DrawNormalCosts(100, 1.0, 2.0, 0.1, 9);
  const auto b = DrawNormalCosts(100, 1.0, 2.0, 0.1, 9);
  EXPECT_EQ(a, b);
  for (double c : a) EXPECT_GE(c, 0.1);
}

// --- TOPS-CAPACITY -----------------------------------------------------------

TEST(CapacityGreedy, ServedCountsRespectCapacities) {
  const CoverageIndex cov = RandomInstance(11, 20, 80);
  CapacityConfig config;
  config.k = 5;
  config.site_capacities.assign(20, 7.0);
  const CapacityResult got =
      CapacityGreedy(cov, PreferenceFunction::Binary(), config);
  EXPECT_EQ(got.selection.sites.size(), 5u);
  ASSERT_EQ(got.served_counts.size(), 5u);
  for (uint32_t served : got.served_counts) EXPECT_LE(served, 7u);
  EXPECT_LE(got.selection.utility, 5.0 * 7.0 + 1e-9);
}

TEST(CapacityGreedy, InfiniteCapacityMatchesPlainGreedyUtility) {
  const CoverageIndex cov = RandomInstance(13, 20, 80);
  const PreferenceFunction psi = PreferenceFunction::Binary();
  CapacityConfig config;
  config.k = 5;
  config.site_capacities.assign(20, 1e9);
  const CapacityResult capacity = CapacityGreedy(cov, psi, config);
  GreedyConfig gc;
  gc.k = 5;
  const Selection greedy = IncGreedy(cov, psi, gc);
  EXPECT_NEAR(capacity.selection.utility, greedy.utility, 1e-9);
}

TEST(CapacityGreedy, UtilityGrowsWithCapacity) {
  const CoverageIndex cov = RandomInstance(15, 20, 100);
  const PreferenceFunction psi = PreferenceFunction::Binary();
  double prev = -1.0;
  for (const double cap : {1.0, 5.0, 20.0, 1000.0}) {
    CapacityConfig config;
    config.k = 5;
    config.site_capacities.assign(20, cap);
    const CapacityResult got = CapacityGreedy(cov, psi, config);
    EXPECT_GE(got.selection.utility, prev - 1e-9) << "cap=" << cap;
    prev = got.selection.utility;
  }
}

TEST(CapacityGreedy, ZeroCapacityYieldsZeroUtility) {
  const CoverageIndex cov = RandomInstance(17, 10, 40);
  CapacityConfig config;
  config.k = 3;
  config.site_capacities.assign(10, 0.0);
  const CapacityResult got =
      CapacityGreedy(cov, PreferenceFunction::Binary(), config);
  EXPECT_DOUBLE_EQ(got.selection.utility, 0.0);
}

TEST(DrawNormalCapacities, FloorsAtOne) {
  const auto caps = DrawNormalCapacities(50, 1.0, 10.0, 21);
  for (double c : caps) EXPECT_GE(c, 1.0);
}

// --- TOPS4 market share --------------------------------------------------------

TEST(MarketShareGreedy, ReachesRequestedShare) {
  const CoverageIndex cov = RandomInstance(23, 30, 100, 800.0);
  MarketShareConfig config;
  config.beta = 0.4;
  const MarketShareResult got = MarketShareGreedy(cov, config);
  EXPECT_TRUE(got.reached_target);
  EXPECT_GE(got.covered_fraction, 0.4 - 1e-9);
  EXPECT_FALSE(got.selection.sites.empty());
}

TEST(MarketShareGreedy, HigherShareNeedsAtLeastAsManySites) {
  const CoverageIndex cov = RandomInstance(25, 30, 100, 800.0);
  size_t prev = 0;
  for (const double beta : {0.2, 0.4, 0.6}) {
    MarketShareConfig config;
    config.beta = beta;
    const MarketShareResult got = MarketShareGreedy(cov, config);
    if (!got.reached_target) break;  // saturated coverage; stop comparing
    EXPECT_GE(got.selection.sites.size(), prev);
    prev = got.selection.sites.size();
  }
}

TEST(MarketShareGreedy, UnreachableShareReportsHonestly) {
  // A single site covering one of three trajectories cannot reach 90%.
  std::vector<std::vector<CoverEntry>> tc(1);
  tc[0] = {{0, 0.0f}};
  const CoverageIndex cov = CoverageIndex::FromCovers(std::move(tc), 3, 3, 100.0);
  MarketShareConfig config;
  config.beta = 0.9;
  const MarketShareResult got = MarketShareGreedy(cov, config);
  EXPECT_FALSE(got.reached_target);
  EXPECT_NEAR(got.covered_fraction, 1.0 / 3.0, 1e-9);
}

TEST(MarketShareGreedy, MaxSitesCapStops) {
  const CoverageIndex cov = RandomInstance(27, 30, 100, 800.0);
  MarketShareConfig config;
  config.beta = 1.0;
  config.max_sites = 2;
  const MarketShareResult got = MarketShareGreedy(cov, config);
  EXPECT_LE(got.selection.sites.size(), 2u);
}

// --- Differential: score-once parallel solvers vs the serial originals -------
//
// Test-local copies of the serial solvers the library had before ψ was scored
// once per solve and the candidate scans ran in parallel. Each re-scores every
// TC entry in every round and scans sites in ascending order; the library's
// answers must match them bit for bit at every thread count.

namespace ref {

struct UtilityState {
  explicit UtilityState(const CoverageIndex& coverage)
      : utility(coverage.num_trajectories(), 0.0) {}

  double MarginalOf(const CoverageIndex& coverage, const PreferenceFunction& psi,
                    SiteId s) const {
    double gain = 0.0;
    const double tau = coverage.tau_m();
    coverage.TC(s).ForEach([&](const CoverEntry& e) {
      const double score = psi.Score(e.dr_m, tau);
      if (score > utility[e.id]) gain += score - utility[e.id];
    });
    return gain;
  }

  double Apply(const CoverageIndex& coverage, const PreferenceFunction& psi,
               SiteId s) {
    double gain = 0.0;
    const double tau = coverage.tau_m();
    coverage.TC(s).ForEach([&](const CoverEntry& e) {
      const double score = psi.Score(e.dr_m, tau);
      if (score > utility[e.id]) {
        gain += score - utility[e.id];
        utility[e.id] = score;
      }
    });
    return gain;
  }

  std::vector<double> utility;
};

double CappedSum(std::vector<double>& gains, size_t cap) {
  double sum = 0.0;
  if (gains.size() <= cap) {
    for (double g : gains) sum += g;
  } else {
    std::nth_element(gains.begin(), gains.begin() + cap, gains.end(),
                     std::greater<>());
    for (size_t i = 0; i < cap; ++i) sum += gains[i];
  }
  return sum;
}

size_t CapOf(double capacity) {
  return static_cast<size_t>(std::max(0.0, std::floor(capacity)));
}

// Serves the top-cap trajectories of `s`; returns the gain.
double ServeTopCap(const CoverageIndex& coverage, const PreferenceFunction& psi,
                   SiteId s, size_t cap, UtilityState* state,
                   uint32_t* served) {
  std::vector<std::pair<double, uint32_t>> ranked;
  coverage.TC(s).ForEach([&](const CoverEntry& e) {
    const double score = psi.Score(e.dr_m, coverage.tau_m());
    if (score > state->utility[e.id]) {
      ranked.emplace_back(score - state->utility[e.id], e.id);
    }
  });
  std::sort(ranked.begin(), ranked.end(), std::greater<>());
  if (ranked.size() > cap) ranked.resize(cap);
  double gain = 0.0;
  for (const auto& [g, t] : ranked) {
    state->utility[t] += g;
    gain += g;
  }
  *served = static_cast<uint32_t>(ranked.size());
  return gain;
}

CostResult CostGreedy(const CoverageIndex& coverage,
                      const PreferenceFunction& psi, const CostConfig& config) {
  CostResult result;
  UtilityState state(coverage);
  const size_t n = coverage.num_sites();
  std::vector<bool> excluded(n, false);
  double spent = 0.0;
  while (true) {
    SiteId best = kInvalidSite;
    double best_ratio = 0.0;
    const double remaining = config.budget - spent;
    for (SiteId s = 0; s < n; ++s) {
      if (excluded[s]) continue;
      const double cost = config.site_costs[s];
      if (cost > remaining) {
        excluded[s] = true;
        continue;
      }
      const double ratio = state.MarginalOf(coverage, psi, s) / cost;
      if (best == kInvalidSite || ratio > best_ratio) {
        best = s;
        best_ratio = ratio;
      }
    }
    if (best == kInvalidSite || best_ratio <= 0.0) break;
    const double gain = state.Apply(coverage, psi, best);
    excluded[best] = true;
    spent += config.site_costs[best];
    result.selection.sites.push_back(best);
    result.selection.marginal_gains.push_back(gain);
    result.selection.utility += gain;
  }
  result.total_cost = spent;
  SiteId smax = kInvalidSite;
  double smax_utility = 0.0;
  for (SiteId s = 0; s < n; ++s) {
    if (config.site_costs[s] > config.budget) continue;
    const double u = coverage.SiteWeight(s, psi);
    if (smax == kInvalidSite || u > smax_utility) {
      smax = s;
      smax_utility = u;
    }
  }
  if (smax != kInvalidSite && smax_utility > result.selection.utility) {
    result.used_single_site_guard = true;
    result.selection.sites = {smax};
    result.selection.marginal_gains = {smax_utility};
    result.selection.utility = smax_utility;
    result.total_cost = config.site_costs[smax];
  }
  return result;
}

CapacityResult CapacityGreedy(const CoverageIndex& coverage,
                              const PreferenceFunction& psi,
                              const CapacityConfig& config) {
  CapacityResult result;
  UtilityState state(coverage);
  const double tau = coverage.tau_m();
  const size_t n = coverage.num_sites();
  std::vector<bool> selected(n, false);
  const uint32_t k = static_cast<uint32_t>(std::min<size_t>(config.k, n));
  std::vector<double> gains;
  for (uint32_t step = 0; step < k; ++step) {
    SiteId best = kInvalidSite;
    double best_marginal = -1.0;
    for (SiteId s = 0; s < n; ++s) {
      if (selected[s]) continue;
      gains.clear();
      for (const CoverEntry& e : coverage.TC(s)) {
        const double score = psi.Score(e.dr_m, tau);
        if (score > state.utility[e.id]) {
          gains.push_back(score - state.utility[e.id]);
        }
      }
      const double marginal =
          CappedSum(gains, CapOf(config.site_capacities[s]));
      if (marginal > best_marginal) {
        best_marginal = marginal;
        best = s;
      }
    }
    if (best == kInvalidSite) break;
    selected[best] = true;
    uint32_t served = 0;
    const double gain =
        ServeTopCap(coverage, psi, best, CapOf(config.site_capacities[best]),
                    &state, &served);
    result.selection.sites.push_back(best);
    result.selection.marginal_gains.push_back(gain);
    result.selection.utility += gain;
    result.served_counts.push_back(served);
  }
  return result;
}

CostResult CostCapacityGreedy(const CoverageIndex& coverage,
                              const PreferenceFunction& psi,
                              const CostCapacityConfig& config) {
  CostResult result;
  UtilityState state(coverage);
  const double tau = coverage.tau_m();
  const size_t n = coverage.num_sites();
  std::vector<bool> excluded(n, false);
  double spent = 0.0;
  std::vector<double> gains;
  while (true) {
    SiteId best = kInvalidSite;
    double best_ratio = 0.0;
    const double remaining = config.budget - spent;
    for (SiteId s = 0; s < n; ++s) {
      if (excluded[s]) continue;
      const double cost = config.site_costs[s];
      if (cost > remaining) {
        excluded[s] = true;
        continue;
      }
      gains.clear();
      coverage.TC(s).ForEach([&](const CoverEntry& e) {
        const double score = psi.Score(e.dr_m, tau);
        if (score > state.utility[e.id]) {
          gains.push_back(score - state.utility[e.id]);
        }
      });
      const double ratio =
          CappedSum(gains, CapOf(config.site_capacities[s])) / cost;
      if (best == kInvalidSite || ratio > best_ratio) {
        best = s;
        best_ratio = ratio;
      }
    }
    if (best == kInvalidSite || best_ratio <= 0.0) break;
    uint32_t served = 0;
    const double gain =
        ServeTopCap(coverage, psi, best, CapOf(config.site_capacities[best]),
                    &state, &served);
    excluded[best] = true;
    spent += config.site_costs[best];
    result.selection.sites.push_back(best);
    result.selection.marginal_gains.push_back(gain);
    result.selection.utility += gain;
  }
  result.total_cost = spent;
  SiteId smax = kInvalidSite;
  double smax_utility = 0.0;
  for (SiteId s = 0; s < n; ++s) {
    if (config.site_costs[s] > config.budget) continue;
    gains.clear();
    coverage.TC(s).ForEach(
        [&](const CoverEntry& e) { gains.push_back(psi.Score(e.dr_m, tau)); });
    const double utility = CappedSum(gains, CapOf(config.site_capacities[s]));
    if (smax == kInvalidSite || utility > smax_utility) {
      smax = s;
      smax_utility = utility;
    }
  }
  if (smax != kInvalidSite && smax_utility > result.selection.utility) {
    result.used_single_site_guard = true;
    result.selection.sites = {smax};
    result.selection.marginal_gains = {smax_utility};
    result.selection.utility = smax_utility;
    result.total_cost = config.site_costs[smax];
  }
  return result;
}

MarketShareResult MarketShareGreedy(const CoverageIndex& coverage,
                                    const MarketShareConfig& config) {
  MarketShareResult result;
  const PreferenceFunction psi = PreferenceFunction::Binary();
  UtilityState state(coverage);
  const size_t n = coverage.num_sites();
  const size_t m = coverage.num_live_trajectories();
  const double target = config.beta * static_cast<double>(m);
  std::vector<bool> selected(n, false);
  double covered = 0.0;
  while (covered + 1e-9 < target) {
    if (config.max_sites != 0 &&
        result.selection.sites.size() >= config.max_sites) {
      break;
    }
    SiteId best = kInvalidSite;
    double best_marginal = 0.0;
    for (SiteId s = 0; s < n; ++s) {
      if (selected[s]) continue;
      const double marginal = state.MarginalOf(coverage, psi, s);
      if (best == kInvalidSite || marginal > best_marginal) {
        best = s;
        best_marginal = marginal;
      }
    }
    if (best == kInvalidSite || best_marginal <= 0.0) break;
    selected[best] = true;
    const double gain = state.Apply(coverage, psi, best);
    covered += gain;
    result.selection.sites.push_back(best);
    result.selection.marginal_gains.push_back(gain);
  }
  result.selection.utility = covered;
  result.covered_fraction = m == 0 ? 0.0 : covered / static_cast<double>(m);
  result.reached_target = covered + 1e-9 >= target;
  return result;
}

// The serial FM-greedy: one FmSketch::Add per TC entry.
FmGreedyResult FmGreedy(const CoverageIndex& coverage,
                        const FmGreedyConfig& config) {
  FmGreedyResult result;
  const size_t n = coverage.num_sites();
  std::vector<sketch::FmSketch> sketches;
  for (SiteId s = 0; s < n; ++s) {
    sketch::FmSketch sk(config.num_sketches, config.sketch_seed);
    coverage.TC(s).ForEach([&](const CoverEntry& e) { sk.Add(e.id); });
    sketches.push_back(std::move(sk));
  }
  std::vector<double> standalone(n);
  for (SiteId s = 0; s < n; ++s) standalone[s] = sketches[s].Estimate();
  std::vector<SiteId> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](SiteId a, SiteId b) {
    return standalone[a] > standalone[b] ||
           (standalone[a] == standalone[b] && a < b);
  });
  sketch::FmSketch base(config.num_sketches, config.sketch_seed);
  double base_estimate = 0.0;
  std::vector<bool> selected(n, false);
  const uint32_t k = static_cast<uint32_t>(std::min<size_t>(config.k, n));
  for (uint32_t step = 0; step < k; ++step) {
    double best_marginal = -1.0;
    SiteId best = kInvalidSite;
    for (SiteId s : order) {
      if (selected[s]) continue;
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
    selected[best] = true;
    base.Merge(sketches[best]);
    base_estimate = base.Estimate();
    result.selection.sites.push_back(best);
    result.selection.marginal_gains.push_back(best_marginal);
  }
  result.estimated_utility = base_estimate;
  result.selection.utility = UtilityOf(coverage, PreferenceFunction::Binary(),
                                       result.selection.sites);
  return result;
}

}  // namespace ref

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  for (double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

void ExpectSameSelection(const Selection& expected, const Selection& actual) {
  EXPECT_EQ(expected.sites, actual.sites);
  EXPECT_EQ(Bits(expected.marginal_gains), Bits(actual.marginal_gains));
  EXPECT_EQ(std::bit_cast<uint64_t>(expected.utility),
            std::bit_cast<uint64_t>(actual.utility));
}

// A random cover over `num_sites` x `num_trajs`: mostly distances on a 25 m
// grid (many exact ties, so many equal marginals and ratios) plus some
// continuous ones, some empty lists, and some entries beyond τ.
CoverageIndex RandomCover(uint64_t seed, uint32_t num_sites,
                          uint32_t num_trajs, double tau_m) {
  util::Rng rng(seed);
  std::vector<std::vector<CoverEntry>> tc(num_sites);
  for (auto& list : tc) {
    if (rng.UniformInt(8) == 0) continue;  // an uncovering site
    const uint64_t len = 1 + rng.UniformInt(std::max<uint32_t>(1, num_trajs / 4));
    std::vector<uint32_t> ids(num_trajs);
    std::iota(ids.begin(), ids.end(), 0u);
    for (uint64_t i = 0; i < len; ++i) {
      std::swap(ids[i], ids[i + rng.UniformInt(num_trajs - i)]);
      float dr;
      if (rng.UniformInt(4) == 0) {
        dr = static_cast<float>(rng.Uniform(0.0, tau_m * 1.05));
      } else {
        dr = 25.0f * static_cast<float>(rng.UniformInt(
                         static_cast<uint64_t>(tau_m / 25.0) + 1));
      }
      list.push_back({ids[i], dr});
    }
  }
  return CoverageIndex::FromCovers(std::move(tc), num_trajs, num_trajs, tau_m);
}

std::vector<PreferenceFunction> AllPsi() {
  return {PreferenceFunction::Binary(), PreferenceFunction::Linear(),
          PreferenceFunction::Exponential(3.0),
          PreferenceFunction::ConvexProbability(2.0)};
}

constexpr uint32_t kThreadCounts[] = {1, 2, 4, 8};

// Runs `check(cover, round_seed)` on raw and compressed random covers.
template <typename Check>
void ForEachRandomCover(uint64_t base, size_t rounds, const Check& check) {
  for (size_t round = 0; round < test::FuzzRounds(rounds); ++round) {
    const uint64_t seed = test::FuzzSeed(base, round);
    SCOPED_TRACE(test::SeedTrace(seed));
    util::Rng rng(seed);
    const uint32_t num_sites = 20 + static_cast<uint32_t>(rng.UniformInt(80));
    const uint32_t num_trajs = 30 + static_cast<uint32_t>(rng.UniformInt(150));
    CoverageIndex cover = RandomCover(seed, num_sites, num_trajs, 800.0);
    {
      SCOPED_TRACE("raw cover");
      check(cover, seed);
    }
    cover.Compress();
    SCOPED_TRACE("compressed cover");
    check(cover, seed);
  }
}

// Costs drawn around 1 with some unaffordable sites; every third seed uses
// unit costs so equal ratios are common.
std::vector<double> TestCosts(size_t n, uint64_t seed) {
  if (seed % 3 == 0) return std::vector<double>(n, 1.0);
  std::vector<double> costs = DrawNormalCosts(n, 1.0, 0.6, 0.1, seed);
  for (size_t s = 0; s < n; s += 7) costs[s] = 50.0;
  return costs;
}

// Capacities from 0 (serves nothing) to more than any cover holds, with
// fractional values that floor.
std::vector<double> TestCapacities(size_t n, uint64_t seed) {
  util::Rng rng(seed ^ 0xcafe);
  std::vector<double> caps(n);
  for (double& c : caps) {
    const uint64_t kind = rng.UniformInt(6);
    c = kind == 0 ? 0.0 : kind == 1 ? 1e9 : rng.Uniform(0.0, 12.0);
  }
  return caps;
}

TEST(VariantDifferential, CostGreedyMatchesSerialOriginal) {
  ForEachRandomCover(0xc057, 10, [](const CoverageIndex& cover, uint64_t seed) {
    const size_t n = cover.num_sites();
    for (const PreferenceFunction& psi : AllPsi()) {
      SCOPED_TRACE(psi.name());
      CostConfig config;
      config.budget = 1.0 + static_cast<double>(seed % 5);
      config.site_costs = TestCosts(n, seed);
      const CostResult want = ref::CostGreedy(cover, psi, config);
      for (const uint32_t threads : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        config.threads = threads;
        const CostResult got = CostGreedy(cover, psi, config);
        ExpectSameSelection(want.selection, got.selection);
        EXPECT_EQ(want.used_single_site_guard, got.used_single_site_guard);
        EXPECT_EQ(std::bit_cast<uint64_t>(want.total_cost),
                  std::bit_cast<uint64_t>(got.total_cost));
      }
    }
  });
}

TEST(VariantDifferential, CapacityGreedyMatchesSerialOriginal) {
  ForEachRandomCover(0xca9a, 10, [](const CoverageIndex& cover, uint64_t seed) {
    for (const PreferenceFunction& psi : AllPsi()) {
      SCOPED_TRACE(psi.name());
      CapacityConfig config;
      config.k = 1 + static_cast<uint32_t>(seed % 8);
      config.site_capacities = TestCapacities(cover.num_sites(), seed);
      const CapacityResult want = ref::CapacityGreedy(cover, psi, config);
      for (const uint32_t threads : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        config.threads = threads;
        const CapacityResult got = CapacityGreedy(cover, psi, config);
        ExpectSameSelection(want.selection, got.selection);
        EXPECT_EQ(want.served_counts, got.served_counts);
      }
    }
  });
}

TEST(VariantDifferential, CostCapacityGreedyMatchesSerialOriginal) {
  ForEachRandomCover(0xc0ca, 6, [](const CoverageIndex& cover, uint64_t seed) {
    const size_t n = cover.num_sites();
    for (const PreferenceFunction& psi : AllPsi()) {
      SCOPED_TRACE(psi.name());
      CostCapacityConfig config;
      config.budget = 1.0 + static_cast<double>(seed % 5);
      config.site_costs = TestCosts(n, seed);
      config.site_capacities = TestCapacities(n, seed);
      const CostResult want = ref::CostCapacityGreedy(cover, psi, config);
      const CostResult got = CostCapacityGreedy(cover, psi, config);
      ExpectSameSelection(want.selection, got.selection);
      EXPECT_EQ(want.used_single_site_guard, got.used_single_site_guard);
      EXPECT_EQ(std::bit_cast<uint64_t>(want.total_cost),
                std::bit_cast<uint64_t>(got.total_cost));
    }
  });
}

TEST(VariantDifferential, MarketShareGreedyMatchesSerialOriginal) {
  ForEachRandomCover(0x3a7e, 6, [](const CoverageIndex& cover, uint64_t seed) {
    MarketShareConfig config;
    config.beta = 0.2 + 0.2 * static_cast<double>(seed % 5);
    config.max_sites = static_cast<uint32_t>(seed % 3) * 4;
    const MarketShareResult want = ref::MarketShareGreedy(cover, config);
    const MarketShareResult got = MarketShareGreedy(cover, config);
    ExpectSameSelection(want.selection, got.selection);
    EXPECT_EQ(std::bit_cast<uint64_t>(want.covered_fraction),
              std::bit_cast<uint64_t>(got.covered_fraction));
    EXPECT_EQ(want.reached_target, got.reached_target);
  });
}

TEST(VariantDifferential, FmGreedyMatchesSerialOriginal) {
  ForEachRandomCover(0xf3, 10, [](const CoverageIndex& cover, uint64_t seed) {
    FmGreedyConfig config;
    config.k = 1 + static_cast<uint32_t>(seed % 8);
    config.num_sketches = seed % 2 == 0 ? 30 : 7;
    config.sketch_seed = seed;
    const FmGreedyResult want = ref::FmGreedy(cover, config);
    for (const uint32_t threads : kThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      config.threads = threads;
      const FmGreedyResult got = FmGreedy(cover, config);
      ExpectSameSelection(want.selection, got.selection);
      EXPECT_EQ(want.union_operations, got.union_operations);
      EXPECT_EQ(std::bit_cast<uint64_t>(want.estimated_utility),
                std::bit_cast<uint64_t>(got.estimated_utility));
    }
  });
}

// Solves with different ψ back to back on one cover and thread: nothing a
// solve computes from ψ may leak into the next one.
TEST(VariantDifferential, ConsecutiveSolvesDoNotShareScores) {
  const CoverageIndex cover = RandomCover(77, 60, 120, 800.0);
  for (const uint32_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (const PreferenceFunction& psi : AllPsi()) {
      SCOPED_TRACE(psi.name());
      CapacityConfig capacity;
      capacity.k = 4;
      capacity.site_capacities.assign(cover.num_sites(), 5.0);
      capacity.threads = threads;
      ExpectSameSelection(ref::CapacityGreedy(cover, psi, capacity).selection,
                          CapacityGreedy(cover, psi, capacity).selection);
      CostConfig cost;
      cost.budget = 3.0;
      cost.site_costs = TestCosts(cover.num_sites(), 5);
      cost.threads = threads;
      ExpectSameSelection(ref::CostGreedy(cover, psi, cost).selection,
                          CostGreedy(cover, psi, cost).selection);
    }
  }
}

}  // namespace
}  // namespace netclus::tops
