#include <algorithm>
#include <atomic>
#include <thread>

#include "graph/dijkstra.h"
#include "gtest/gtest.h"
#include "test_helpers.h"
#include "tops/coverage.h"
#include "tops/inc_greedy.h"
#include "tops/preference.h"
#include "tops/site_set.h"
#include "util/float_bits.h"
#include "util/rng.h"

namespace netclus::tops {
namespace {

using traj::TrajectoryStore;

TEST(SiteSet, BasicMapping) {
  graph::RoadNetwork net = test::MakeLineNetwork(10);
  SiteSet sites({3, 7, 3});  // duplicate dropped
  EXPECT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites.node(0), 3u);
  EXPECT_EQ(sites.SiteAtNode(7), 1u);
  EXPECT_EQ(sites.SiteAtNode(5), kInvalidSite);
  const SiteId added = sites.Add(5);
  EXPECT_EQ(added, 2u);
  EXPECT_EQ(sites.Add(5), 2u);  // re-add returns existing
}

TEST(SiteSet, AllNodesAndSample) {
  graph::RoadNetwork net = test::MakeLineNetwork(20);
  EXPECT_EQ(SiteSet::AllNodes(net).size(), 20u);
  const SiteSet sample = SiteSet::SampleNodes(net, 5, 1);
  EXPECT_EQ(sample.size(), 5u);
  for (SiteId s = 0; s < sample.size(); ++s) EXPECT_LT(sample.node(s), 20u);
}

TEST(Preference, BinaryIsStepFunction) {
  const PreferenceFunction psi = PreferenceFunction::Binary();
  EXPECT_DOUBLE_EQ(psi.Score(0.0, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(psi.Score(100.0, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(psi.Score(100.01, 100.0), 0.0);
  EXPECT_TRUE(psi.is_binary());
}

TEST(Preference, AllKindsAreNonIncreasingAndNormalized) {
  const double tau = 500.0;
  const std::vector<PreferenceFunction> kinds = {
      PreferenceFunction::Binary(), PreferenceFunction::Linear(),
      PreferenceFunction::Exponential(3.0),
      PreferenceFunction::ConvexProbability(2.0),
      PreferenceFunction::NegativeDistance(5000.0)};
  for (const auto& psi : kinds) {
    EXPECT_DOUBLE_EQ(psi.Score(0.0, tau), 1.0) << psi.name();
    double prev = 1.0;
    for (double d = 0.0; d <= tau; d += 25.0) {
      const double score = psi.Score(d, tau);
      EXPECT_LE(score, prev + 1e-12) << psi.name() << " at " << d;
      EXPECT_GE(score, 0.0);
      EXPECT_LE(score, 1.0);
      prev = score;
    }
  }
}

TEST(Preference, ConvexProbabilityIsConvex) {
  const PreferenceFunction psi = PreferenceFunction::ConvexProbability(2.0);
  const double tau = 1000.0;
  // Midpoint convexity on a few triples.
  for (double a = 0.0; a + 400.0 <= tau; a += 100.0) {
    const double b = a + 400.0;
    const double mid = psi.Score((a + b) / 2.0, tau);
    const double chord = (psi.Score(a, tau) + psi.Score(b, tau)) / 2.0;
    EXPECT_LE(mid, chord + 1e-12);
  }
}

TEST(Preference, NegativeDistanceIgnoresTau) {
  const PreferenceFunction psi = PreferenceFunction::NegativeDistance(1000.0);
  EXPECT_DOUBLE_EQ(psi.Score(500.0, 1.0), 0.5);  // tau irrelevant
  EXPECT_DOUBLE_EQ(psi.Score(2000.0, 1.0), 0.0);  // clamped
}

// --- coverage construction -------------------------------------------------

TEST(Coverage, LineNetworkSinglePointDetours) {
  // Line 0-1-2-3-4, 100 m edges, two-way. One trajectory {0,1,2}; site at 4.
  graph::RoadNetwork net = test::MakeLineNetwork(5, 100.0);
  TrajectoryStore store(&net);
  store.Add({0, 1, 2});
  SiteSet sites({4, 2});
  CoverageConfig config;
  config.tau_m = 1000.0;
  const CoverageIndex cov = CoverageIndex::Build(store, sites, config);
  // Site 0 (node 4): nearest trajectory node is 2, round trip 2*200 = 400.
  ASSERT_EQ(cov.TC(0).size(), 1u);
  EXPECT_NEAR(cov.TC(0)[0].dr_m, 400.0, 1e-3);
  // Site 1 (node 2): on the trajectory, detour 0.
  ASSERT_EQ(cov.TC(1).size(), 1u);
  EXPECT_NEAR(cov.TC(1)[0].dr_m, 0.0, 1e-6);
}

TEST(Coverage, TauCutsOffFarSites) {
  graph::RoadNetwork net = test::MakeLineNetwork(5, 100.0);
  TrajectoryStore store(&net);
  store.Add({0, 1});
  SiteSet sites({4});
  CoverageConfig config;
  config.tau_m = 500.0;  // nearest round trip is 2*300 = 600 > tau
  const CoverageIndex cov = CoverageIndex::Build(store, sites, config);
  EXPECT_EQ(cov.TC(0).size(), 0u);
}

class CoverageProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoverageProperty, SinglePointMatchesBruteForce) {
  graph::RoadNetwork net = test::MakeRandomNetwork(40, GetParam());
  TrajectoryStore store(&net);
  test::FillRandomWalks(&store, 15, 3, 8, GetParam() + 1);
  SiteSet sites = SiteSet::SampleNodes(net, 10, GetParam() + 2);
  CoverageConfig config;
  config.tau_m = 700.0;
  const CoverageIndex cov = CoverageIndex::Build(store, sites, config);
  for (SiteId s = 0; s < sites.size(); ++s) {
    // Build expected cover by brute force.
    for (traj::TrajId t = 0; t < store.total_count(); ++t) {
      const double expected =
          test::BruteSinglePointDetour(net, store.trajectory(t), sites.node(s));
      const auto tc = cov.TC(s);
      auto it = std::find_if(tc.begin(), tc.end(),
                             [&](const CoverEntry& e) { return e.id == t; });
      if (expected <= config.tau_m) {
        ASSERT_NE(it, tc.end()) << "site " << s << " traj " << t;
        EXPECT_NEAR(it->dr_m, expected, 0.5);
      } else {
        EXPECT_EQ(it, tc.end()) << "site " << s << " traj " << t;
      }
    }
  }
}

TEST_P(CoverageProperty, PairwiseMatchesBruteForce) {
  graph::RoadNetwork net = test::MakeRandomNetwork(30, GetParam() + 50);
  TrajectoryStore store(&net);
  test::FillRandomWalks(&store, 10, 3, 7, GetParam() + 51);
  SiteSet sites = SiteSet::SampleNodes(net, 8, GetParam() + 52);
  CoverageConfig config;
  config.tau_m = 600.0;
  config.detour = DetourMode::kPairwise;
  const CoverageIndex cov = CoverageIndex::Build(store, sites, config);
  for (SiteId s = 0; s < sites.size(); ++s) {
    for (traj::TrajId t = 0; t < store.total_count(); ++t) {
      const double expected = test::BrutePairwiseDetour(
          net, store.trajectory(t), sites.node(s), config.tau_m);
      const auto tc = cov.TC(s);
      auto it = std::find_if(tc.begin(), tc.end(),
                             [&](const CoverEntry& e) { return e.id == t; });
      if (expected <= config.tau_m) {
        ASSERT_NE(it, tc.end()) << "site " << s << " traj " << t;
        EXPECT_NEAR(it->dr_m, expected, 0.5);
      } else {
        EXPECT_EQ(it, tc.end());
      }
    }
  }
}

TEST_P(CoverageProperty, PairwiseNeverExceedsSinglePoint) {
  graph::RoadNetwork net = test::MakeRandomNetwork(35, GetParam() + 80);
  TrajectoryStore store(&net);
  test::FillRandomWalks(&store, 12, 3, 9, GetParam() + 81);
  SiteSet sites = SiteSet::SampleNodes(net, 8, GetParam() + 82);
  CoverageConfig single;
  single.tau_m = 800.0;
  CoverageConfig pairwise = single;
  pairwise.detour = DetourMode::kPairwise;
  const CoverageIndex cov_single = CoverageIndex::Build(store, sites, single);
  const CoverageIndex cov_pair = CoverageIndex::Build(store, sites, pairwise);
  for (SiteId s = 0; s < sites.size(); ++s) {
    for (const CoverEntry& e : cov_single.TC(s)) {
      const auto tc = cov_pair.TC(s);
      auto it = std::find_if(tc.begin(), tc.end(), [&](const CoverEntry& p) {
        return p.id == e.id;
      });
      // Pairwise detour (leave/rejoin) can only improve on the round trip.
      ASSERT_NE(it, tc.end());
      EXPECT_LE(it->dr_m, e.dr_m + 0.5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverageProperty, ::testing::Values(11, 22, 33));

TEST(Coverage, TcAndScAreMutuallyConsistent) {
  graph::RoadNetwork net = test::MakeGridNetwork(8, 8, 120.0);
  TrajectoryStore store(&net);
  test::FillRandomWalks(&store, 30, 4, 10, 3);
  SiteSet sites = SiteSet::SampleNodes(net, 20, 4);
  CoverageConfig config;
  config.tau_m = 500.0;
  const CoverageIndex cov = CoverageIndex::Build(store, sites, config);
  size_t tc_total = 0, sc_total = 0;
  for (SiteId s = 0; s < sites.size(); ++s) {
    for (const CoverEntry& e : cov.TC(s)) {
      ++tc_total;
      const auto sc = cov.SC(e.id);
      auto it = std::find_if(sc.begin(), sc.end(), [&](const CoverEntry& c) {
        return c.id == s;
      });
      ASSERT_NE(it, sc.end());
      EXPECT_EQ(it->dr_m, e.dr_m);
    }
  }
  for (traj::TrajId t = 0; t < store.total_count(); ++t) {
    sc_total += cov.SC(t).size();
  }
  EXPECT_EQ(tc_total, sc_total);
  EXPECT_EQ(cov.stats().cover_entries, tc_total);
}

TEST(Coverage, CoversAreSortedByDistance) {
  graph::RoadNetwork net = test::MakeGridNetwork(7, 7, 100.0);
  TrajectoryStore store(&net);
  test::FillRandomWalks(&store, 25, 4, 9, 5);
  SiteSet sites = SiteSet::SampleNodes(net, 15, 6);
  CoverageConfig config;
  config.tau_m = 600.0;
  const CoverageIndex cov = CoverageIndex::Build(store, sites, config);
  for (SiteId s = 0; s < sites.size(); ++s) {
    const auto tc = cov.TC(s);
    for (size_t i = 1; i < tc.size(); ++i) EXPECT_GE(tc[i].dr_m, tc[i - 1].dr_m);
  }
  for (traj::TrajId t = 0; t < store.total_count(); ++t) {
    const auto sc = cov.SC(t);
    for (size_t i = 1; i < sc.size(); ++i) EXPECT_GE(sc[i].dr_m, sc[i - 1].dr_m);
  }
}

TEST(Coverage, DeletedTrajectoriesAreSkipped) {
  graph::RoadNetwork net = test::MakeLineNetwork(6, 100.0);
  TrajectoryStore store(&net);
  const traj::TrajId a = store.Add({0, 1, 2});
  store.Add({3, 4, 5});
  store.Remove(a);
  SiteSet sites({1, 4});
  CoverageConfig config;
  // tau below the 400 m round trip from node 1 to the live trajectory's
  // nearest node (3), so site 0 could only have covered the deleted one.
  config.tau_m = 300.0;
  const CoverageIndex cov = CoverageIndex::Build(store, sites, config);
  EXPECT_EQ(cov.TC(0).size(), 0u);
  EXPECT_EQ(cov.TC(1).size(), 1u);
  EXPECT_EQ(cov.num_live_trajectories(), 1u);
}

TEST(Coverage, MemoryBudgetTriggersOom) {
  graph::RoadNetwork net = test::MakeGridNetwork(10, 10, 100.0);
  TrajectoryStore store(&net);
  test::FillRandomWalks(&store, 100, 5, 12, 7);
  SiteSet sites = SiteSet::AllNodes(net);
  CoverageConfig config;
  config.tau_m = 800.0;
  config.memory_budget_bytes = 1024;  // absurdly small
  const CoverageIndex cov = CoverageIndex::Build(store, sites, config);
  EXPECT_TRUE(cov.oom());
}

TEST(Coverage, SiteWeightSumsPreferenceScores) {
  graph::RoadNetwork net = test::MakeLineNetwork(5, 100.0);
  TrajectoryStore store(&net);
  store.Add({0, 1});
  store.Add({1, 2});
  SiteSet sites({1});
  CoverageConfig config;
  config.tau_m = 1000.0;
  const CoverageIndex cov = CoverageIndex::Build(store, sites, config);
  const PreferenceFunction binary = PreferenceFunction::Binary();
  EXPECT_DOUBLE_EQ(cov.SiteWeight(0, binary), 2.0);
  const PreferenceFunction linear = PreferenceFunction::Linear();
  // Both trajectories pass through node 1: detour 0, score 1 each.
  EXPECT_DOUBLE_EQ(cov.SiteWeight(0, linear), 2.0);
}

TEST(Coverage, FromCoversBuildsConsistentInverse) {
  std::vector<std::vector<CoverEntry>> tc(2);
  tc[0] = {{0, 10.0f}, {1, 20.0f}};
  tc[1] = {{1, 5.0f}};
  const CoverageIndex cov = CoverageIndex::FromCovers(std::move(tc), 3, 3, 100.0);
  EXPECT_EQ(cov.num_sites(), 2u);
  EXPECT_EQ(cov.num_trajectories(), 3u);
  ASSERT_EQ(cov.SC(1).size(), 2u);
  EXPECT_EQ(cov.SC(1)[0].id, 1u);  // dr 5 sorts first
  EXPECT_EQ(cov.SC(2).size(), 0u);
}

// ---------------------------------------------------------------------------
// CSR transpose vs the vector-of-vectors transpose it replaced.
// ---------------------------------------------------------------------------

// The previous FromCovers algorithm, kept verbatim as the reference: sort
// every TC list, push_back-scatter into per-trajectory SC vectors, sort
// every SC list.
struct ReferenceCovers {
  std::vector<std::vector<CoverEntry>> tc;
  std::vector<std::vector<CoverEntry>> sc;
};

ReferenceCovers ReferenceFromCovers(std::vector<std::vector<CoverEntry>> tc,
                                    size_t num_trajectories) {
  auto by_distance = [](const CoverEntry& a, const CoverEntry& b) {
    return a.dr_m < b.dr_m || (util::BitEqual(a.dr_m, b.dr_m) && a.id < b.id);
  };
  ReferenceCovers out;
  out.tc = std::move(tc);
  out.sc.resize(num_trajectories);
  for (auto& cover : out.tc) std::sort(cover.begin(), cover.end(), by_distance);
  for (SiteId s = 0; s < out.tc.size(); ++s) {
    for (const CoverEntry& e : out.tc[s]) out.sc[e.id].push_back({s, e.dr_m});
  }
  for (auto& sc : out.sc) std::sort(sc.begin(), sc.end(), by_distance);
  return out;
}

void ExpectSameList(const std::vector<CoverEntry>& expected, const CoverList& actual,
                    const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  size_t i = 0;
  for (const CoverEntry& e : actual) {
    EXPECT_EQ(expected[i].id, e.id) << what << " entry " << i;
    EXPECT_EQ(util::FloatBits(expected[i].dr_m), util::FloatBits(e.dr_m))
        << what << " entry " << i;
    ++i;
  }
}

void ExpectSameCovers(const CoverageIndex& expected, const CoverageIndex& actual) {
  ASSERT_EQ(expected.num_sites(), actual.num_sites());
  ASSERT_EQ(expected.num_trajectories(), actual.num_trajectories());
  for (SiteId s = 0; s < expected.num_sites(); ++s) {
    const CoverList tc = expected.TC(s);
    ExpectSameList(std::vector<CoverEntry>(tc.begin(), tc.end()), actual.TC(s),
                   "TC(" + std::to_string(s) + ")");
  }
  for (traj::TrajId t = 0; t < expected.num_trajectories(); ++t) {
    const CoverList sc = expected.SC(t);
    ExpectSameList(std::vector<CoverEntry>(sc.begin(), sc.end()), actual.SC(t),
                   "SC(" + std::to_string(t) + ")");
  }
}

// Seeded covers shaped to reach every branch of the transpose: lists in
// random order, distances on a coarse grid so that ties must be broken by
// id, and spread finely enough that the scatter rounds alone leave SC
// lists unsorted, empty covers, trajectories no site covers, and lists on
// both sides of the short-list sort cutoff.
std::vector<std::vector<CoverEntry>> RandomCovers(uint64_t seed, size_t num_sites,
                                                  size_t num_trajs) {
  util::Rng rng(seed);
  const size_t uncovered_from = num_trajs - num_trajs / 8;  // never covered
  std::vector<std::vector<CoverEntry>> tc(num_sites);
  for (SiteId s = 0; s < num_sites; ++s) {
    if (s % 7 == 3) continue;  // empty cover
    const double density = s % 5 == 0 ? 0.9 : 0.3;
    for (traj::TrajId t = 0; t < uncovered_from; ++t) {
      // Trajectories 0..3 are covered by every non-empty site, so their SC
      // lists are long.
      if (t >= 4 && rng.Uniform() >= density) continue;
      // Half the distances on a 25 m grid (ties), half anywhere.
      const float dr = rng.Bernoulli(0.5)
                           ? static_cast<float>(25 * rng.UniformInt(12))
                           : static_cast<float>(rng.Uniform(0.0, 300.0));
      tc[s].push_back({t, dr});
    }
    for (size_t i = tc[s].size(); i > 1; --i) {
      std::swap(tc[s][i - 1], tc[s][rng.UniformInt(i)]);
    }
  }
  return tc;
}

TEST(CoverageTranspose, FromCoversMatchesVectorOfVectorsReference) {
  for (const uint64_t seed : {3u, 17u, 29u}) {
    const size_t num_sites = 90, num_trajs = 160;
    const std::vector<std::vector<CoverEntry>> input =
        RandomCovers(seed, num_sites, num_trajs);
    const ReferenceCovers ref = ReferenceFromCovers(input, num_trajs);
    for (const uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                   std::to_string(threads));
      const CoverageIndex cov =
          CoverageIndex::FromCovers(input, num_trajs, num_trajs, 300.0, threads);
      ASSERT_EQ(cov.num_sites(), num_sites);
      ASSERT_EQ(cov.num_trajectories(), num_trajs);
      size_t entries = 0;
      for (SiteId s = 0; s < num_sites; ++s) {
        ExpectSameList(ref.tc[s], cov.TC(s), "TC(" + std::to_string(s) + ")");
        entries += ref.tc[s].size();
      }
      for (traj::TrajId t = 0; t < num_trajs; ++t) {
        ExpectSameList(ref.sc[t], cov.SC(t), "SC(" + std::to_string(t) + ")");
      }
      EXPECT_EQ(cov.stats().cover_entries, entries);
      EXPECT_TRUE(cov.TC(3).empty());
      EXPECT_TRUE(cov.SC(num_trajs - 1).empty());
      EXPECT_GT(cov.SC(0).size(), 48u);  // past the short-list cutoff
    }
  }
}

TEST(CoverageTranspose, ConcurrentFirstScCallsBuildTheReferenceInverse) {
  const size_t num_sites = 90, num_trajs = 160;
  const std::vector<std::vector<CoverEntry>> input =
      RandomCovers(41, num_sites, num_trajs);
  const ReferenceCovers ref = ReferenceFromCovers(input, num_trajs);
  for (const uint32_t build_threads : {1u, 4u}) {
    SCOPED_TRACE("build threads " + std::to_string(build_threads));
    const CoverageIndex cov = CoverageIndex::FromCovers(
        input, num_trajs, num_trajs, 300.0, build_threads);
    // FromCovers leaves SC unbuilt: only TC is charged until an SC() call.
    const uint64_t tc_bytes = cov.MemoryBytes();

    // Eight readers race to the first SC() call; each copies every list.
    constexpr int kReaders = 8;
    std::vector<std::vector<std::vector<CoverEntry>>> seen(kReaders);
    std::atomic<bool> go{false};
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (traj::TrajId t = 0; t < num_trajs; ++t) {
          const CoverList sc = cov.SC(t);
          seen[r].emplace_back(sc.begin(), sc.end());
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& reader : readers) reader.join();

    EXPECT_GT(cov.MemoryBytes(), tc_bytes);
    for (int r = 0; r < kReaders; ++r) {
      for (traj::TrajId t = 0; t < num_trajs; ++t) {
        const std::vector<CoverEntry>& got = seen[r][t];
        ExpectSameList(ref.sc[t], CoverList::Raw(got.data(), got.size()),
                       "reader " + std::to_string(r) + " SC(" +
                           std::to_string(t) + ")");
      }
    }
  }
}

TEST(CoverageTranspose, BuildIsIdenticalAcrossThreadsRawAndCompressed) {
  graph::RoadNetwork net = test::MakeGridNetwork(9, 9, 110.0);
  TrajectoryStore store(&net);
  test::FillRandomWalks(&store, 60, 4, 12, 21);
  store.Remove(5);  // a deleted trajectory: an SC list no site fills
  const SiteSet sites = SiteSet::AllNodes(net);
  CoverageConfig config;
  config.tau_m = 700.0;
  config.threads = 1;
  CoverageIndex serial = CoverageIndex::Build(store, sites, config);
  config.threads = 4;
  CoverageIndex parallel = CoverageIndex::Build(store, sites, config);
  EXPECT_TRUE(serial.SC(5).empty());
  EXPECT_EQ(serial.stats().cover_entries, parallel.stats().cover_entries);
  ExpectSameCovers(serial, parallel);

  serial.Compress();
  parallel.Compress();
  ASSERT_TRUE(serial.compressed());
  ExpectSameCovers(serial, parallel);
  config.threads = 1;
  ExpectSameCovers(CoverageIndex::Build(store, sites, config), parallel);
}

TEST(CoverageTranspose, SortCoversMatchesCoverOrderSort) {
  util::Rng rng(77);
  for (const size_t n : {0u, 1u, 2u, 17u, 48u, 49u, 300u}) {
    std::vector<CoverEntry> list;
    for (size_t i = 0; i < n; ++i) {
      list.push_back({static_cast<uint32_t>(rng.UniformInt(1000)),
                      static_cast<float>(rng.UniformInt(20)) * 0.5f});
    }
    std::vector<CoverEntry> expected = list;
    std::sort(expected.begin(), expected.end(), CoverOrder);
    SortCovers(list.data(), list.data() + list.size());
    ExpectSameList(expected, CoverList::Raw(list.data(), list.size()),
                   "n=" + std::to_string(n));
  }
  // Negative distances cannot take the packed-word path; they still sort
  // into CoverOrder.
  std::vector<CoverEntry> mixed = {{4, 2.0f}, {1, -3.0f}, {2, -0.5f}, {0, -3.0f}};
  SortCovers(mixed.data(), mixed.data() + mixed.size());
  EXPECT_EQ(mixed[0].id, 0u);
  EXPECT_EQ(mixed[1].id, 1u);
  EXPECT_EQ(mixed[2].id, 2u);
  EXPECT_EQ(mixed[3].id, 4u);
}

TEST(Coverage, EvaluateSelectionMatchesIndexUtility) {
  graph::RoadNetwork net = test::MakeGridNetwork(8, 8, 120.0);
  TrajectoryStore store(&net);
  test::FillRandomWalks(&store, 40, 4, 10, 9);
  SiteSet sites = SiteSet::SampleNodes(net, 12, 10);
  CoverageConfig config;
  config.tau_m = 500.0;
  const CoverageIndex cov = CoverageIndex::Build(store, sites, config);
  const PreferenceFunction psi = PreferenceFunction::Linear();
  const std::vector<SiteId> selection = {0, 3, 7};
  const double via_index = UtilityOf(cov, psi, selection);
  const double via_eval = CoverageIndex::EvaluateSelection(
      store, sites, selection, config.tau_m, psi, DetourMode::kSinglePoint);
  EXPECT_NEAR(via_index, via_eval, 1e-3);
}

}  // namespace
}  // namespace netclus::tops
