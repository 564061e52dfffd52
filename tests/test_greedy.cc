#include <algorithm>
#include <numeric>
#include <string>

#include "gtest/gtest.h"
#include "test_helpers.h"
#include "tops/coverage.h"
#include "tops/fm_greedy.h"
#include "tops/inc_greedy.h"
#include "tops/optimal.h"
#include "util/rng.h"

namespace netclus::tops {
namespace {

// The paper's Example 1 (Tables 2 and 3), encoded with a linear preference
// ψ = 1 - d_r/τ at τ = 1 so that the detour distances below reproduce the
// exact preference scores of Table 2:
//   ψ(T1,s1)=0.4  ψ(T1,s2)=0.11  ψ(T1,s3)=0
//   ψ(T2,s1)=0    ψ(T2,s2)=0.5   ψ(T2,s3)=0.6
CoverageIndex MakeExample1() {
  std::vector<std::vector<CoverEntry>> tc(3);
  tc[0] = {{0, 0.60f}};                 // s1 covers T1 with score 0.4
  tc[1] = {{0, 0.89f}, {1, 0.50f}};     // s2: T1 -> 0.11, T2 -> 0.5
  tc[2] = {{1, 0.40f}};                 // s3: T2 -> 0.6
  return CoverageIndex::FromCovers(std::move(tc), 2, 2, 1.0);
}

TEST(IncGreedy, ReproducesPaperExample1) {
  const CoverageIndex cov = MakeExample1();
  const PreferenceFunction psi = PreferenceFunction::Linear();
  GreedyConfig config;
  config.k = 2;
  const Selection got = IncGreedy(cov, psi, config);
  // Table 3: Inc-Greedy selects {s2 first (weight 0.61), then s1}, U = 0.9.
  ASSERT_EQ(got.sites.size(), 2u);
  EXPECT_EQ(got.sites[0], 1u);  // s2
  EXPECT_EQ(got.sites[1], 0u);  // s1
  EXPECT_NEAR(got.utility, 0.9, 1e-6);
  EXPECT_NEAR(got.marginal_gains[0], 0.61, 1e-6);
  EXPECT_NEAR(got.marginal_gains[1], 0.29, 1e-6);
}

TEST(Optimal, ReproducesPaperExample1Optimum) {
  const CoverageIndex cov = MakeExample1();
  const PreferenceFunction psi = PreferenceFunction::Linear();
  OptimalConfig config;
  config.k = 2;
  const OptimalResult got = SolveOptimal(cov, psi, config);
  // Table 3: OPT selects {s1, s3} with U = 1.0.
  EXPECT_TRUE(got.proven_optimal);
  EXPECT_NEAR(got.selection.utility, 1.0, 1e-6);
  std::vector<SiteId> sorted = got.selection.sites;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<SiteId>{0u, 2u}));
}

TEST(IncGreedy, MarginalGainsAreNonIncreasing) {
  graph::RoadNetwork net = test::MakeGridNetwork(10, 10, 120.0);
  traj::TrajectoryStore store(&net);
  test::FillRandomWalks(&store, 80, 4, 12, 13);
  SiteSet sites = SiteSet::SampleNodes(net, 30, 14);
  CoverageConfig cc;
  cc.tau_m = 500.0;
  const CoverageIndex cov = CoverageIndex::Build(store, sites, cc);
  GreedyConfig config;
  config.k = 10;
  const Selection got = IncGreedy(cov, PreferenceFunction::Binary(), config);
  for (size_t i = 1; i < got.marginal_gains.size(); ++i) {
    EXPECT_LE(got.marginal_gains[i], got.marginal_gains[i - 1] + 1e-9);
  }
  // Utility equals the sum of marginal gains and the exact re-evaluation.
  double sum = 0.0;
  for (double g : got.marginal_gains) sum += g;
  EXPECT_NEAR(got.utility, sum, 1e-9);
  EXPECT_NEAR(got.utility, UtilityOf(cov, PreferenceFunction::Binary(), got.sites),
              1e-9);
}

TEST(IncGreedy, UtilityIsMonotoneInK) {
  graph::RoadNetwork net = test::MakeGridNetwork(9, 9, 120.0);
  traj::TrajectoryStore store(&net);
  test::FillRandomWalks(&store, 60, 4, 10, 15);
  SiteSet sites = SiteSet::SampleNodes(net, 25, 16);
  CoverageConfig cc;
  cc.tau_m = 500.0;
  const CoverageIndex cov = CoverageIndex::Build(store, sites, cc);
  double prev = 0.0;
  for (uint32_t k = 1; k <= 8; ++k) {
    GreedyConfig config;
    config.k = k;
    const Selection got = IncGreedy(cov, PreferenceFunction::Binary(), config);
    EXPECT_GE(got.utility, prev - 1e-9);
    prev = got.utility;
  }
}

TEST(IncGreedy, KLargerThanSitesSelectsAll) {
  const CoverageIndex cov = MakeExample1();
  GreedyConfig config;
  config.k = 100;
  const Selection got = IncGreedy(cov, PreferenceFunction::Linear(), config);
  EXPECT_EQ(got.sites.size(), 3u);
  EXPECT_NEAR(got.utility, 1.0, 1e-6);  // s1 + s3 saturate both trajectories
}

TEST(IncGreedy, SelectionsAreDistinct) {
  graph::RoadNetwork net = test::MakeGridNetwork(8, 8, 120.0);
  traj::TrajectoryStore store(&net);
  test::FillRandomWalks(&store, 50, 4, 10, 17);
  SiteSet sites = SiteSet::SampleNodes(net, 20, 18);
  CoverageConfig cc;
  cc.tau_m = 600.0;
  const CoverageIndex cov = CoverageIndex::Build(store, sites, cc);
  GreedyConfig config;
  config.k = 12;
  const Selection got = IncGreedy(cov, PreferenceFunction::Binary(), config);
  std::vector<SiteId> sorted = got.sites;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(IncGreedy, ExistingServicesDiscountMarginals) {
  const CoverageIndex cov = MakeExample1();
  const PreferenceFunction psi = PreferenceFunction::Linear();
  GreedyConfig config;
  config.k = 1;
  config.existing_services = {1};  // s2 already exists
  const Selection got = IncGreedy(cov, psi, config);
  // With s2 given (base utility 0.61), the best addition is s1:
  // gain(s1) = 0.4 - 0.11 = 0.29 vs gain(s3) = 0.6 - 0.5 = 0.1.
  ASSERT_EQ(got.sites.size(), 1u);
  EXPECT_EQ(got.sites[0], 0u);
  EXPECT_NEAR(got.base_utility, 0.61, 1e-6);
  EXPECT_NEAR(got.utility, 0.9, 1e-6);
}

TEST(IncGreedy, ExistingServicesNeverReduceUtility) {
  graph::RoadNetwork net = test::MakeGridNetwork(8, 8, 120.0);
  traj::TrajectoryStore store(&net);
  test::FillRandomWalks(&store, 50, 4, 10, 19);
  SiteSet sites = SiteSet::SampleNodes(net, 20, 20);
  CoverageConfig cc;
  cc.tau_m = 500.0;
  const CoverageIndex cov = CoverageIndex::Build(store, sites, cc);
  GreedyConfig plain;
  plain.k = 4;
  const Selection without = IncGreedy(cov, PreferenceFunction::Binary(), plain);
  GreedyConfig with_es = plain;
  with_es.existing_services = {0, 1};
  const Selection with = IncGreedy(cov, PreferenceFunction::Binary(), with_es);
  EXPECT_GE(with.utility, without.utility - 1e-9);
}

TEST(IncGreedy, TieBreaksPreferHigherWeightThenHigherIndex) {
  // Two disjoint sites with identical covers sizes but different weights
  // under a linear ψ; then two fully identical sites.
  std::vector<std::vector<CoverEntry>> tc(3);
  tc[0] = {{0, 0.8f}};             // weight 0.2
  tc[1] = {{1, 0.2f}};             // weight 0.8 -> picked first
  tc[2] = {{2, 0.2f}};             // weight 0.8, same, higher index wins
  const CoverageIndex cov =
      CoverageIndex::FromCovers(std::move(tc), 3, 3, 1.0);
  GreedyConfig config;
  config.k = 1;
  const Selection got = IncGreedy(cov, PreferenceFunction::Linear(), config);
  EXPECT_EQ(got.sites[0], 2u);  // marginal tie at 0.8 -> max weight tie -> max index
}

class GreedyApproximation : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GreedyApproximation, GreedyWithinTheoreticalBoundOfOptimal) {
  graph::RoadNetwork net = test::MakeRandomNetwork(40, GetParam());
  traj::TrajectoryStore store(&net);
  test::FillRandomWalks(&store, 30, 3, 8, GetParam() + 1);
  SiteSet sites = SiteSet::SampleNodes(net, 12, GetParam() + 2);
  CoverageConfig cc;
  cc.tau_m = 700.0;
  const CoverageIndex cov = CoverageIndex::Build(store, sites, cc);
  const PreferenceFunction psi = PreferenceFunction::Binary();
  GreedyConfig config;
  config.k = 4;
  const Selection greedy = IncGreedy(cov, psi, config);
  OptimalConfig oc;
  oc.k = 4;
  oc.time_limit_s = 30.0;
  const OptimalResult optimal = SolveOptimal(cov, psi, oc);
  ASSERT_TRUE(optimal.proven_optimal);
  EXPECT_GE(greedy.utility, (1.0 - 1.0 / M_E) * optimal.selection.utility - 1e-6);
  EXPECT_LE(greedy.utility, optimal.selection.utility + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyApproximation,
                         ::testing::Values(101, 202, 303, 404));

// --- FM-greedy ---------------------------------------------------------------

TEST(FmGreedy, SelectsKSitesWithPositiveUtility) {
  graph::RoadNetwork net = test::MakeGridNetwork(9, 9, 120.0);
  traj::TrajectoryStore store(&net);
  test::FillRandomWalks(&store, 80, 4, 12, 23);
  SiteSet sites = SiteSet::SampleNodes(net, 25, 24);
  CoverageConfig cc;
  cc.tau_m = 500.0;
  const CoverageIndex cov = CoverageIndex::Build(store, sites, cc);
  FmGreedyConfig config;
  config.k = 5;
  config.num_sketches = 30;
  const FmGreedyResult got = FmGreedy(cov, config);
  EXPECT_EQ(got.selection.sites.size(), 5u);
  EXPECT_GT(got.selection.utility, 0.0);
  EXPECT_GT(got.estimated_utility, 0.0);
  EXPECT_GT(got.union_operations, 0u);
}

class FmGreedyQuality : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FmGreedyQuality, UtilityWithinToleranceOfExactGreedy) {
  graph::RoadNetwork net = test::MakeGridNetwork(10, 10, 120.0);
  traj::TrajectoryStore store(&net);
  test::FillRandomWalks(&store, 120, 4, 12, 25);
  SiteSet sites = SiteSet::SampleNodes(net, 30, 26);
  CoverageConfig cc;
  cc.tau_m = 500.0;
  const CoverageIndex cov = CoverageIndex::Build(store, sites, cc);
  GreedyConfig gc;
  gc.k = 5;
  const Selection exact = IncGreedy(cov, PreferenceFunction::Binary(), gc);
  FmGreedyConfig fc;
  fc.k = 5;
  fc.num_sketches = GetParam();
  const FmGreedyResult fm = FmGreedy(cov, fc);
  // Paper Table 8: error shrinks with f; even f=30 stays within ~10%.
  const double tolerance = GetParam() >= 30 ? 0.15 : 0.60;
  EXPECT_GE(fm.selection.utility, (1.0 - tolerance) * exact.utility)
      << "f=" << GetParam();
  EXPECT_LE(fm.selection.utility, exact.utility + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(SketchCounts, FmGreedyQuality,
                         ::testing::Values(4u, 30u, 64u));

TEST(FmGreedy, EarlyTerminationDoesFewerUnionsThanBruteScan) {
  graph::RoadNetwork net = test::MakeGridNetwork(10, 10, 120.0);
  traj::TrajectoryStore store(&net);
  test::FillRandomWalks(&store, 100, 4, 12, 27);
  SiteSet sites = SiteSet::SampleNodes(net, 40, 28);
  CoverageConfig cc;
  cc.tau_m = 500.0;
  const CoverageIndex cov = CoverageIndex::Build(store, sites, cc);
  FmGreedyConfig config;
  config.k = 5;
  const FmGreedyResult got = FmGreedy(cov, config);
  // Brute force would do k * n = 200 unions; early termination must save
  // at least a few.
  EXPECT_LT(got.union_operations, 5u * 40u);
}


// ---------------------------------------------------------------------------
// Lazy Inc-Greedy against the eager solver it replaced.
// ---------------------------------------------------------------------------

// A test-local copy of the eager, SC-based Inc-Greedy: marginals start at
// the site weights and every utility rise is subtracted from the marginal
// of each unselected site covering the trajectory (walked through SC);
// each round scans all sites for the (marginal, weight, id) argmax.
Selection EagerIncGreedy(const CoverageIndex& coverage,
                         const PreferenceFunction& psi,
                         const GreedyConfig& config) {
  const size_t n = coverage.num_sites();
  const double tau = coverage.tau_m();
  std::vector<double> weight(n), marginal(n);
  std::vector<double> utility(coverage.num_trajectories(), 0.0);
  std::vector<bool> selected(n, false);
  for (SiteId s = 0; s < n; ++s) {
    weight[s] = coverage.SiteWeight(s, psi);
    marginal[s] = weight[s];
  }
  double total = 0.0;
  const auto select = [&](SiteId s) {
    selected[s] = true;
    double gain = 0.0;
    coverage.TC(s).ForEach([&](const CoverEntry& e) {
      const double score = psi.Score(e.dr_m, tau);
      const double old_u = utility[e.id];
      if (score <= old_u) return;
      gain += score - old_u;
      coverage.SC(e.id).ForEach([&](const CoverEntry& cover) {
        if (selected[cover.id]) return;
        const double other = psi.Score(cover.dr_m, tau);
        marginal[cover.id] -=
            std::max(0.0, other - old_u) - std::max(0.0, other - score);
      });
      utility[e.id] = score;
    });
    marginal[s] = 0.0;
    total += gain;
    return gain;
  };

  Selection result;
  for (SiteId es : config.existing_services) select(es);
  result.base_utility = total;
  const uint32_t k = static_cast<uint32_t>(std::min<size_t>(config.k, n));
  for (uint32_t step = 0; step < k; ++step) {
    SiteId best = kInvalidSite;
    for (SiteId s = 0; s < n; ++s) {
      if (selected[s]) continue;
      if (best == kInvalidSite || marginal[s] > marginal[best] ||
          (marginal[s] == marginal[best] &&
           (weight[s] > weight[best] ||
            (weight[s] == weight[best] && s > best)))) {
        best = s;
      }
    }
    if (best == kInvalidSite) break;
    result.marginal_gains.push_back(select(best));
    result.sites.push_back(best);
  }
  result.utility = total;
  return result;
}

// A random cover: mostly distances on a 25 m grid (many exact ties), some
// continuous ones and some beyond τ, some empty lists, and some
// trajectories no site covers.
CoverageIndex RandomGreedyCover(util::Rng& rng, double tau_m) {
  const uint32_t num_sites = 20 + static_cast<uint32_t>(rng.UniformInt(80));
  const uint32_t num_trajs = 30 + static_cast<uint32_t>(rng.UniformInt(150));
  std::vector<std::vector<CoverEntry>> tc(num_sites);
  for (auto& list : tc) {
    if (rng.UniformInt(8) == 0) continue;  // an uncovering site
    const uint64_t len = 1 + rng.UniformInt(num_trajs / 4);
    std::vector<uint32_t> ids(num_trajs);
    std::iota(ids.begin(), ids.end(), 0u);
    for (uint64_t i = 0; i < len; ++i) {
      std::swap(ids[i], ids[i + rng.UniformInt(num_trajs - i)]);
      const float dr =
          rng.UniformInt(4) == 0
              ? static_cast<float>(rng.Uniform(0.0, tau_m * 1.05))
              : 25.0f * static_cast<float>(rng.UniformInt(
                            static_cast<uint64_t>(tau_m / 25.0) + 1));
      list.push_back({ids[i], dr});
    }
  }
  return CoverageIndex::FromCovers(std::move(tc), num_trajs + 5, num_trajs,
                                   tau_m);
}

std::vector<PreferenceFunction> EveryPsi() {
  return {PreferenceFunction::Binary(), PreferenceFunction::Linear(),
          PreferenceFunction::Exponential(3.0),
          PreferenceFunction::ConvexProbability(2.0),
          PreferenceFunction::NegativeDistance(900.0)};
}

// Σ max(0, ψ_j - U_j) over TC(s) in TC order, after applying `applied`.
double FreshMarginal(const CoverageIndex& cover, const PreferenceFunction& psi,
                     const std::vector<SiteId>& applied, SiteId s) {
  std::vector<double> utility(cover.num_trajectories(), 0.0);
  for (SiteId a : applied) {
    cover.TC(a).ForEach([&](const CoverEntry& e) {
      utility[e.id] = std::max(utility[e.id], psi.Score(e.dr_m, cover.tau_m()));
    });
  }
  double gain = 0.0;
  cover.TC(s).ForEach([&](const CoverEntry& e) {
    const double score = psi.Score(e.dr_m, cover.tau_m());
    if (score > utility[e.id]) gain += score - utility[e.id];
  });
  return gain;
}

enum class Agreement { kIdentical, kZeroGainTail, kNearTie };

// Compares a lazy run with the eager one. They agree bit for bit up to the
// first step where their picks differ, which can happen only at a tie the
// eager subtraction residue decides (inc_greedy.h):
//  * in the zero-gain tail, where every later gain is exactly zero in both
//    runs and utilities agree bit for bit;
//  * at a near-tie above zero, where the two picks' fresh marginals agree
//    to rounding and the lazy pick's is the larger. The runs then cover
//    different trajectories, so later steps are not compared.
Agreement CompareLazyToEager(const CoverageIndex& cover,
                             const PreferenceFunction& psi,
                             const GreedyConfig& config, const Selection& eager,
                             const Selection& lazy) {
  EXPECT_EQ(lazy.base_utility, eager.base_utility);
  EXPECT_EQ(lazy.sites.size(), eager.sites.size());
  EXPECT_EQ(lazy.marginal_gains.size(), lazy.sites.size());
  const size_t steps = std::min(lazy.sites.size(), eager.sites.size());
  size_t i = 0;
  for (; i < steps && lazy.sites[i] == eager.sites[i]; ++i) {
    EXPECT_EQ(lazy.marginal_gains[i], eager.marginal_gains[i]) << "step " << i;
  }
  if (i == steps) {
    EXPECT_EQ(lazy.utility, eager.utility);
    return Agreement::kIdentical;
  }
  SCOPED_TRACE("picks differ first at step " + std::to_string(i));
  if (eager.marginal_gains[i] == 0.0) {
    for (size_t j = i; j < steps; ++j) {
      EXPECT_EQ(lazy.marginal_gains[j], 0.0) << "step " << j;
      EXPECT_EQ(eager.marginal_gains[j], 0.0) << "step " << j;
    }
    EXPECT_EQ(lazy.utility, eager.utility);
    return Agreement::kZeroGainTail;
  }
  std::vector<SiteId> applied = config.existing_services;
  applied.insert(applied.end(), lazy.sites.begin(), lazy.sites.begin() + i);
  const double lazy_marginal = FreshMarginal(cover, psi, applied, lazy.sites[i]);
  const double eager_marginal =
      FreshMarginal(cover, psi, applied, eager.sites[i]);
  EXPECT_EQ(lazy.marginal_gains[i], lazy_marginal);
  EXPECT_EQ(eager.marginal_gains[i], eager_marginal);
  EXPECT_GE(lazy_marginal, eager_marginal);
  EXPECT_LE(lazy_marginal - eager_marginal, 1e-12 * lazy_marginal);
  return Agreement::kNearTie;
}

// Counts of each outcome over every (cover, ψ, threads) run.
struct AgreementCounts {
  size_t identical = 0, zero_gain_tail = 0, near_tie = 0;
};

// Runs eager and lazy on one seeded cover (raw and compressed), every ψ
// and threads 1/2/4/8.
void CompareOnSeed(uint64_t seed, AgreementCounts* counts) {
  SCOPED_TRACE(test::SeedTrace(seed));
  util::Rng rng(seed);
  CoverageIndex cover = RandomGreedyCover(rng, 800.0);
  const size_t n = cover.num_sites();
  // Existing services: none, a few, or a few with a duplicate.
  std::vector<SiteId> es;
  const uint64_t num_es = rng.UniformInt(4);
  for (uint64_t i = 0; i < num_es; ++i) {
    es.push_back(static_cast<SiteId>(rng.UniformInt(n)));
  }
  if (!es.empty() && rng.UniformInt(2) == 0) es.push_back(es.front());
  GreedyConfig config;
  config.k = 1 + static_cast<uint32_t>(rng.UniformInt(8));
  config.existing_services = es;
  for (const bool compress : {false, true}) {
    if (compress) cover.Compress();
    SCOPED_TRACE(compress ? "compressed" : "raw");
    for (const PreferenceFunction& psi : EveryPsi()) {
      SCOPED_TRACE(psi.name());
      const Selection eager = EagerIncGreedy(cover, psi, config);
      for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        config.threads = threads;
        const Selection lazy = IncGreedy(cover, psi, config);
        switch (CompareLazyToEager(cover, psi, config, eager, lazy)) {
          case Agreement::kIdentical:
            ++counts->identical;
            break;
          case Agreement::kZeroGainTail:
            ++counts->zero_gain_tail;
            break;
          case Agreement::kNearTie:
            ++counts->near_tie;
            break;
        }
      }
    }
  }
}

TEST(IncGreedyDifferential, LazyMatchesEager) {
  AgreementCounts counts;
  for (size_t round = 0; round < test::FuzzRounds(12); ++round) {
    CompareOnSeed(test::FuzzSeed(0x1a2e, round), &counts);
  }
  // Most runs are compared in full, so the contract is not vacuous.
  EXPECT_GT(counts.identical, counts.zero_gain_tail + counts.near_tie);
}

TEST(IncGreedyDifferential, NearTiesAreDecidedByFreshMarginals) {
  // Covers where the eager solver's subtraction residue broke a near-tie
  // differently from the fresh sums (found in 3000 seeds of the test
  // above; linear and negative-distance ψ).
  AgreementCounts counts;
  for (const uint64_t seed :
       {7453968960189908105ull, 3276543306827717217ull, 6594763193222122903ull}) {
    CompareOnSeed(seed, &counts);
  }
  EXPECT_GT(counts.near_tie, 0u);
}

TEST(IncGreedyDifferential, ExhaustedUtilityGivesZeroGainsAndTheSameUtility) {
  // k is every site, so the rounds run past the last positive marginal.
  util::Rng rng(0xe8a5);
  CoverageIndex cover = RandomGreedyCover(rng, 800.0);
  for (const bool compress : {false, true}) {
    if (compress) cover.Compress();
    SCOPED_TRACE(compress ? "compressed" : "raw");
    for (const PreferenceFunction& psi : EveryPsi()) {
      SCOPED_TRACE(psi.name());
      GreedyConfig config;
      config.k = static_cast<uint32_t>(cover.num_sites());
      config.existing_services = {3, 3};
      const Selection eager = EagerIncGreedy(cover, psi, config);
      const Selection lazy = IncGreedy(cover, psi, config);
      ASSERT_GT(eager.marginal_gains.size(), 0u);
      ASSERT_EQ(eager.marginal_gains.back(), 0.0) << "utility not exhausted";
      EXPECT_NE(CompareLazyToEager(cover, psi, config, eager, lazy),
                Agreement::kNearTie);
      // The lazy tail follows (0, weight, id): weights never rise.
      size_t positive = 0;
      while (positive < lazy.marginal_gains.size() &&
             lazy.marginal_gains[positive] > 0.0) {
        ++positive;
      }
      for (size_t i = positive + 1; i < lazy.sites.size(); ++i) {
        EXPECT_GE(cover.SiteWeight(lazy.sites[i - 1], psi),
                  cover.SiteWeight(lazy.sites[i], psi));
      }
    }
  }
}

}  // namespace
}  // namespace netclus::tops
