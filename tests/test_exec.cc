// Differential suite for the query planning & staged execution layer
// (src/exec) and its serving-side cover sharing (serve::CoverCache).
//
// The load-bearing property: the planner/executor path is bit-identical
// to the pre-refactor monolithic pipeline for every variant (plain TOPS
// under several ψ, existing services, FM and the FM+ES fallback,
// TOPS-COST, TOPS-CAPACITY), at 1 and 4 threads, under every distance
// backend, and with cover sharing on or off. `LegacyTops`/`LegacyCost`/
// `LegacyCapacity` below are line-for-line replicas of the pre-refactor
// query.cc pipeline built from the still-public pieces
// (QueryEngine::BuildApproxCoverage + the solver family), so the
// executor is checked against the original algorithm, not against
// itself.
//
// The serving replay tests at the bottom must also be TSan-clean (the CI
// tsan job runs this file under -fsanitize=thread).
#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "exec/cover_build.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "exec/planner.h"
#include "gtest/gtest.h"
#include "serve/cover_cache.h"
#include "serve/query_cache.h"
#include "serve/server.h"
#include "test_helpers.h"
#include "tops/variants.h"
#include "traj/trip_generator.h"
#include "util/float_bits.h"

namespace netclus {
namespace {

using tops::PreferenceFunction;
using tops::SiteId;

Engine MakeEngine(graph::spf::BackendKind backend =
                      graph::spf::BackendKind::kDefault,
                  uint32_t threads = 0, uint32_t dim = 12,
                  uint64_t seed = 4711) {
  graph::RoadNetwork net = test::MakeGridNetwork(dim, dim, 100.0);
  tops::SiteSet sites = tops::SiteSet::AllNodes(net);
  Engine::Options options;
  options.index.gamma = 0.75;
  options.index.tau_min_m = 300.0;
  options.index.tau_max_m = 3000.0;
  options.distance_backend = backend;
  options.threads = threads;
  Engine engine(std::move(net), std::move(sites), options);
  util::Rng rng(seed);
  for (int i = 0; i < 90; ++i) {
    const auto src =
        static_cast<graph::NodeId>(rng.UniformInt(engine.network().num_nodes()));
    const auto dst =
        static_cast<graph::NodeId>(rng.UniformInt(engine.network().num_nodes()));
    if (src == dst) continue;
    auto path = traj::RoutePerturbed(engine.network(), src, dst, 0.3, seed + i);
    if (path.size() >= 2) engine.AddTrajectory(std::move(path));
  }
  engine.BuildIndex();
  return engine;
}

// ---------------------------------------------------------------------------
// Replicas of the pre-refactor query.cc pipeline (the "legacy path").
// ---------------------------------------------------------------------------

index::QueryResult FinishLegacy(const tops::Selection& clustered,
                                const std::vector<SiteId>& rep_sites,
                                size_t instance) {
  index::QueryResult out;
  out.selection = clustered;
  out.selection.sites.clear();
  for (SiteId rep_index : clustered.sites) {
    out.selection.sites.push_back(rep_sites[rep_index]);
  }
  out.instance_used = instance;
  out.clusters_considered = rep_sites.size();
  return out;
}

index::QueryResult LegacyTops(const Engine& engine,
                              const PreferenceFunction& psi,
                              const index::QueryConfig& config) {
  const index::MultiIndex& index = engine.index();
  const index::QueryEngine query(&index, &engine.store(), &engine.sites());
  const size_t p = index.InstanceFor(config.tau_m);
  std::vector<SiteId> rep_sites;
  const tops::CoverageIndex approx = query.BuildApproxCoverage(
      config.tau_m, p, &rep_sites, nullptr, config.threads);

  std::unordered_map<SiteId, SiteId> rep_index_of;
  for (SiteId i = 0; i < rep_sites.size(); ++i) rep_index_of[rep_sites[i]] = i;
  const index::ClusterIndex& instance = index.instance(p);
  std::vector<SiteId> existing_reps;
  for (SiteId es : config.existing_services) {
    const uint32_t g = instance.cluster_of(engine.sites().node(es));
    const SiteId rep = instance.cluster(g).representative;
    if (rep == tops::kInvalidSite) continue;
    auto it = rep_index_of.find(rep);
    if (it != rep_index_of.end()) existing_reps.push_back(it->second);
  }

  tops::Selection clustered;
  if (config.use_fm_sketch && psi.is_binary() && existing_reps.empty()) {
    tops::FmGreedyConfig fm_config;
    fm_config.k = config.k;
    fm_config.num_sketches = config.fm_copies;
    clustered = FmGreedy(approx, fm_config).selection;
  } else {
    tops::GreedyConfig greedy_config;
    greedy_config.k = config.k;
    greedy_config.existing_services = existing_reps;
    greedy_config.threads = config.threads;
    clustered = IncGreedy(approx, psi, greedy_config);
  }
  return FinishLegacy(clustered, rep_sites, p);
}

index::QueryResult LegacyCost(const Engine& engine,
                              const PreferenceFunction& psi,
                              const index::QueryConfig& config,
                              const std::vector<double>& site_costs,
                              double budget) {
  const index::MultiIndex& index = engine.index();
  const index::QueryEngine query(&index, &engine.store(), &engine.sites());
  const size_t p = index.InstanceFor(config.tau_m);
  std::vector<SiteId> rep_sites;
  const tops::CoverageIndex approx = query.BuildApproxCoverage(
      config.tau_m, p, &rep_sites, nullptr, config.threads);
  tops::CostConfig cost_config;
  cost_config.budget = budget;
  for (SiteId site : rep_sites) {
    cost_config.site_costs.push_back(site_costs[site]);
  }
  const tops::CostResult cost = CostGreedy(approx, psi, cost_config);
  return FinishLegacy(cost.selection, rep_sites, p);
}

index::QueryResult LegacyCapacity(const Engine& engine,
                                  const PreferenceFunction& psi,
                                  const index::QueryConfig& config,
                                  const std::vector<double>& capacities) {
  const index::MultiIndex& index = engine.index();
  const index::QueryEngine query(&index, &engine.store(), &engine.sites());
  const size_t p = index.InstanceFor(config.tau_m);
  std::vector<SiteId> rep_sites;
  const tops::CoverageIndex approx = query.BuildApproxCoverage(
      config.tau_m, p, &rep_sites, nullptr, config.threads);
  tops::CapacityConfig capacity_config;
  capacity_config.k = config.k;
  for (SiteId site : rep_sites) {
    capacity_config.site_capacities.push_back(capacities[site]);
  }
  const tops::CapacityResult capacity =
      CapacityGreedy(approx, psi, capacity_config);
  return FinishLegacy(capacity.selection, rep_sites, p);
}

void ExpectBitIdentical(const index::QueryResult& expected,
                        const index::QueryResult& actual,
                        const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(expected.selection.sites, actual.selection.sites);
  EXPECT_EQ(expected.selection.marginal_gains, actual.selection.marginal_gains);
  EXPECT_EQ(expected.selection.utility, actual.selection.utility);
  EXPECT_EQ(expected.selection.base_utility, actual.selection.base_utility);
  EXPECT_EQ(expected.instance_used, actual.instance_used);
  EXPECT_EQ(expected.clusters_considered, actual.clusters_considered);
}

// ---------------------------------------------------------------------------
// Tentpole acceptance: executor ≡ legacy, across variants × threads ×
// distance backends.
// ---------------------------------------------------------------------------

TEST(Exec, ExecutorMatchesLegacyAcrossVariantsThreadsAndBackends) {
  for (const graph::spf::BackendKind backend :
       {graph::spf::BackendKind::kDijkstra,
        graph::spf::BackendKind::kBidirectional,
        graph::spf::BackendKind::kContractionHierarchies}) {
    for (const uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE("backend " + std::to_string(static_cast<int>(backend)) +
                   " threads " + std::to_string(threads));
      const Engine engine = MakeEngine(backend, threads);
      const std::vector<double> costs =
          tops::DrawNormalCosts(engine.sites().size(), 1.0, 0.4, 0.1, 63);
      const std::vector<double> caps(engine.sites().size(), 8.0);

      // A reusable ES set: the plain answer's sites, reversed so the
      // caller order is deliberately non-canonical.
      std::vector<SiteId> es =
          engine.TopK(3, 800.0, PreferenceFunction::Binary()).selection.sites;
      std::reverse(es.begin(), es.end());

      struct Case {
        const char* name;
        PreferenceFunction psi;
        uint32_t k;
        double tau;
        bool use_fm;
        std::vector<SiteId> es;
      };
      const std::vector<Case> cases = {
          {"binary", PreferenceFunction::Binary(), 5, 800.0, false, {}},
          {"linear", PreferenceFunction::Linear(), 4, 600.0, false, {}},
          {"convex2", PreferenceFunction::ConvexProbability(2.0), 5, 1000.0,
           false, {}},
          {"exponential", PreferenceFunction::Exponential(3.0), 3, 1400.0,
           false, {}},
          {"existing-services", PreferenceFunction::Binary(), 3, 800.0, false,
           es},
          {"fm", PreferenceFunction::Binary(), 5, 900.0, true, {}},
          {"fm-es-fallback", PreferenceFunction::Binary(), 3, 900.0, true, es},
      };
      for (const Case& c : cases) {
        index::QueryConfig config;
        config.k = c.k;
        config.tau_m = c.tau;
        config.use_fm_sketch = c.use_fm;
        config.existing_services = c.es;
        config.threads = threads;
        ExpectBitIdentical(LegacyTops(engine, c.psi, config),
                           engine.TopK(c.k, c.tau, c.psi, c.use_fm, c.es),
                           c.name);
      }

      index::QueryConfig vconfig;
      vconfig.tau_m = 800.0;
      vconfig.threads = threads;
      ExpectBitIdentical(
          LegacyCost(engine, PreferenceFunction::Binary(), vconfig, costs, 4.0),
          engine.TopKWithBudget(4.0, 800.0, PreferenceFunction::Binary(),
                                costs),
          "cost");
      vconfig.k = 4;
      ExpectBitIdentical(
          LegacyCapacity(engine, PreferenceFunction::Binary(), vconfig, caps),
          engine.TopKWithCapacity(4, 800.0, PreferenceFunction::Binary(),
                                  caps),
          "capacity");
    }
  }
}

// ---------------------------------------------------------------------------
// Cover build determinism across chunk layouts. BuildCover cuts the
// representatives into ~8 chunks per thread, so every thread count below
// yields a different layout; the covers and answers must not move.
// ---------------------------------------------------------------------------

void ExpectSameCoverLists(const tops::CoverList& expected,
                          const tops::CoverList& actual, const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  auto a = actual.begin();
  for (const tops::CoverEntry& e : expected) {
    EXPECT_EQ(e.id, a->id) << what;
    EXPECT_EQ(util::FloatBits(e.dr_m), util::FloatBits(a->dr_m)) << what;
    ++a;
  }
}

TEST(Exec, BuildCoverIsIdenticalAcrossChunkLayouts) {
  const Engine engine = MakeEngine(graph::spf::BackendKind::kDefault, 1);
  for (const double tau : {600.0, 1500.0}) {
    const size_t p = engine.index().InstanceFor(tau);
    const exec::BuiltCover serial =
        exec::BuildCover(engine.index(), engine.store(), tau, p, 1);
    ASSERT_GT(serial.rep_sites.size(), 16u);  // enough to split many ways
    for (const uint32_t threads : {2u, 4u, 8u}) {
      SCOPED_TRACE("tau " + std::to_string(tau) + " threads " +
                   std::to_string(threads));
      const exec::BuiltCover cover =
          exec::BuildCover(engine.index(), engine.store(), tau, p, threads);
      EXPECT_EQ(serial.rep_sites, cover.rep_sites);
      EXPECT_EQ(serial.bytes, cover.bytes);
      const tops::CoverageIndex& a = serial.approx;
      const tops::CoverageIndex& b = cover.approx;
      ASSERT_EQ(a.num_sites(), b.num_sites());
      ASSERT_EQ(a.num_trajectories(), b.num_trajectories());
      for (SiteId s = 0; s < a.num_sites(); ++s) {
        ExpectSameCoverLists(a.TC(s), b.TC(s), "TC " + std::to_string(s));
      }
      for (traj::TrajId t = 0; t < a.num_trajectories(); ++t) {
        ExpectSameCoverLists(a.SC(t), b.SC(t), "SC " + std::to_string(t));
      }
      EXPECT_GE(cover.traverse_seconds, 0.0);
      EXPECT_GE(cover.transpose_seconds, 0.0);
      EXPECT_DOUBLE_EQ(cover.traverse_seconds + cover.transpose_seconds,
                       cover.build_seconds);
    }
  }
}

TEST(Exec, RunAnswersAreIdenticalAcrossChunkLayouts) {
  std::vector<Engine::QuerySpec> specs;
  for (const double tau : {500.0, 900.0, 1400.0, 2100.0}) {
    Engine::QuerySpec spec;
    spec.k = 4;
    spec.tau_m = tau;
    specs.push_back(spec);
    spec.psi = PreferenceFunction::Linear();
    specs.push_back(spec);
  }
  const Engine reference = MakeEngine(graph::spf::BackendKind::kDefault, 1);
  std::vector<index::QueryResult> expected;
  for (const auto& spec : specs) expected.push_back(reference.Run(spec));
  for (const uint32_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const Engine engine = MakeEngine(graph::spf::BackendKind::kDefault, threads);
    for (size_t i = 0; i < specs.size(); ++i) {
      ExpectBitIdentical(expected[i], engine.Run(specs[i]),
                         "spec " + std::to_string(i));
    }
  }
}

TEST(Exec, CoverBuildPhasesAreRecorded) {
  const Engine engine = MakeEngine();
  (void)engine.TopK(5, 800.0, PreferenceFunction::Binary());
  const exec::StatsRegistry::Snapshot stats = engine.ExecStats();
  EXPECT_EQ(stats.cover_traverse.count, 1u);
  EXPECT_EQ(stats.cover_transpose.count, 1u);
  EXPECT_GT(stats.cover_traverse.total_seconds, 0.0);
  EXPECT_GT(stats.cover_transpose.total_seconds, 0.0);
  EXPECT_DOUBLE_EQ(
      stats.cover_traverse.total_seconds + stats.cover_transpose.total_seconds,
      stats.cover_build.total_seconds);
}

TEST(Exec, SolvesAreRecordedPerSolver) {
  const Engine engine = MakeEngine();
  const std::vector<double> costs =
      tops::DrawNormalCosts(engine.sites().size(), 1.0, 0.4, 0.1, 63);
  const std::vector<double> caps(engine.sites().size(), 8.0);
  const std::vector<SiteId> es =
      engine.TopK(2, 800.0, PreferenceFunction::Binary()).selection.sites;
  (void)engine.TopK(3, 900.0, PreferenceFunction::Binary(), /*use_fm=*/true);
  // FM with existing services runs (and is recorded as) Inc-Greedy.
  (void)engine.TopK(3, 900.0, PreferenceFunction::Binary(), /*use_fm=*/true,
                    es);
  (void)engine.TopKWithBudget(4.0, 800.0, PreferenceFunction::Linear(), costs);
  (void)engine.TopKWithCapacity(4, 800.0, PreferenceFunction::Binary(), caps);
  (void)engine.TopKWithCapacity(4, 700.0, PreferenceFunction::Binary(), caps);

  const exec::StatsRegistry::Snapshot stats = engine.ExecStats();
  const auto count = [&](exec::SolverKind solver) {
    return stats.solve_by_solver[static_cast<size_t>(solver)].count;
  };
  EXPECT_EQ(count(exec::SolverKind::kIncGreedy), 2u);
  EXPECT_EQ(count(exec::SolverKind::kFmGreedy), 1u);
  EXPECT_EQ(count(exec::SolverKind::kCostGreedy), 1u);
  EXPECT_EQ(count(exec::SolverKind::kCapacityGreedy), 2u);
  EXPECT_EQ(stats.solve.count, 6u);
  double total = 0.0;
  for (const auto& per : stats.solve_by_solver) total += per.total_seconds;
  EXPECT_DOUBLE_EQ(total, stats.solve.total_seconds);

  // The metrics export carries the solver as a label on the solve stage.
  const std::string prom = engine.DumpMetrics();
  EXPECT_NE(prom.find("stage=\"solve\",solver=\"capacity-greedy\""),
            std::string::npos);
  EXPECT_NE(prom.find("stage=\"solve\",solver=\"fm-greedy\""),
            std::string::npos);
}

TEST(Exec, QueryPathSolversLeaveTheCoverInverseUnbuilt) {
  const Engine engine = MakeEngine();
  const size_t n = engine.sites().size();
  std::vector<Engine::QuerySpec> specs(5);
  specs[0].k = 4;  // TOPS, Inc-Greedy
  specs[1].k = 3;  // TOPS with existing services
  specs[1].tau_m = 900.0;
  specs[1].psi = PreferenceFunction::Linear();
  specs[1].existing_services =
      engine.TopK(2, 900.0, PreferenceFunction::Binary()).selection.sites;
  specs[2].k = 3;  // FM-greedy
  specs[2].use_fm = true;
  specs[3].variant = exec::QueryVariant::kTopsCost;
  specs[3].psi = PreferenceFunction::Linear();
  specs[3].site_costs = tops::DrawNormalCosts(n, 1.0, 0.4, 0.1, 63);
  specs[3].budget = 4.0;
  specs[4].variant = exec::QueryVariant::kTopsCapacity;
  specs[4].k = 4;
  specs[4].site_capacities = std::vector<double>(n, 8.0);

  // Engine::Run's own stages, keeping the cover it builds.
  exec::ExecContext ctx;
  const exec::Planner planner(&ctx);
  const exec::Executor executor(&engine.index(), &engine.store(),
                                &engine.sites(), &ctx);
  for (size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("spec " + std::to_string(i));
    const exec::QueryPlan plan = planner.Plan(
        specs[i].ToRequest(engine.options().threads), engine.index(), 1);
    bool reused = true;
    const exec::CoverPtr cover = executor.ObtainCover(plan, plan.threads, &reused);
    const index::QueryResult staged =
        executor.ExecuteOnCover(plan, cover, reused);
    ExpectBitIdentical(engine.Run(specs[i]), staged, "staged vs Run");

    // MemoryBytes() counts SC once it is built; after the solve it still
    // equals the TC bytes charged at build time, and an SC() call adds to it.
    const uint64_t rep_bytes = cover->rep_sites.size() * sizeof(SiteId);
    EXPECT_EQ(cover->bytes, cover->approx.MemoryBytes() + rep_bytes);
    (void)cover->approx.SC(0);
    EXPECT_GT(cover->approx.MemoryBytes() + rep_bytes, cover->bytes);
  }
}

// ---------------------------------------------------------------------------
// Batch cover sharing.
// ---------------------------------------------------------------------------

std::vector<Engine::QuerySpec> DuplicateTauBatch(size_t count) {
  // ≤ 4 distinct τ values across the batch — the acceptance shape.
  const double taus[] = {600.0, 900.0, 1200.0, 1500.0};
  std::vector<Engine::QuerySpec> specs;
  for (size_t i = 0; i < count; ++i) {
    Engine::QuerySpec spec;
    spec.k = 2 + static_cast<uint32_t>(i % 5);
    spec.tau_m = taus[i % 4];
    if (i % 7 == 3) spec.psi = PreferenceFunction::Linear();
    specs.push_back(spec);
  }
  return specs;
}

TEST(Exec, TopKBatchSharesCoversAndMatchesSequentialTopK) {
  for (const uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const Engine engine = MakeEngine(graph::spf::BackendKind::kDefault, threads);
    const std::vector<Engine::QuerySpec> specs = DuplicateTauBatch(32);

    const auto before = engine.ExecStats();
    const std::vector<index::QueryResult> batch = engine.TopKBatch(specs);
    const auto after = engine.ExecStats();
    ASSERT_EQ(batch.size(), specs.size());

    // Exactly one cover build per distinct τ (all four map to distinct
    // (instance, τ) keys here), every other query shared.
    EXPECT_EQ(after.covers_built - before.covers_built, 4u);
    EXPECT_EQ(after.covers_shared - before.covers_shared, specs.size() - 4);

    for (size_t i = 0; i < specs.size(); ++i) {
      const index::QueryResult single = engine.TopK(
          specs[i].k, specs[i].tau_m, specs[i].psi, specs[i].use_fm,
          specs[i].existing_services);
      ExpectBitIdentical(single, batch[i], "spec " + std::to_string(i));
      // Attribution: each of the 8 sharers of a τ reports 1/8 of the
      // transient bytes a private build would have charged, and flags the
      // sharing. The cover is deterministic, so the private build's bytes
      // are exactly the single-query measurement.
      EXPECT_TRUE(batch[i].cover_shared);
      EXPECT_FALSE(single.cover_shared);
      EXPECT_EQ(batch[i].transient_bytes, single.transient_bytes / 8);
      // Self-consistent timing invariants only (never compare wall clocks
      // across separate runs — load skew makes that flaky).
      EXPECT_GT(batch[i].cover_build_seconds, 0.0);
      EXPECT_LE(batch[i].cover_build_seconds, batch[i].total_seconds);
      // Every sharer of a τ group reports the same amortized build cost
      // (spec i % 4 is the group's first member).
      EXPECT_EQ(batch[i].cover_build_seconds,
                batch[i % 4].cover_build_seconds);
    }
  }
}

TEST(Exec, SingleQueryAttributionIsUnshared) {
  const Engine engine = MakeEngine();
  const index::QueryResult result =
      engine.TopK(5, 800.0, PreferenceFunction::Binary());
  EXPECT_FALSE(result.cover_shared);
  EXPECT_GT(result.transient_bytes, 0u);
  EXPECT_GT(result.cover_build_seconds, 0.0);
  EXPECT_GE(result.total_seconds, result.cover_build_seconds);
}

// ---------------------------------------------------------------------------
// Plan canonicalization & fingerprints.
// ---------------------------------------------------------------------------

TEST(Exec, PlanKeyCanonicalizesEquivalentRequests) {
  exec::PlanRequest a;
  a.k = 5;
  a.tau_m = 800.0;
  a.existing_services = {3, 1, 2};
  exec::PlanRequest b = a;
  b.existing_services = {2, 3, 1, 1};
  EXPECT_EQ(exec::CanonicalPlanKey(a, 2), exec::CanonicalPlanKey(b, 2));
  EXPECT_EQ(exec::CanonicalPlanKey(a, 2).Fingerprint(),
            exec::CanonicalPlanKey(b, 2).Fingerprint());

  // ψ normalization: ConvexProbability(1) is bit-equivalent to Linear.
  exec::PlanRequest convex1 = a;
  convex1.psi = PreferenceFunction::ConvexProbability(1.0);
  exec::PlanRequest linear = a;
  linear.psi = PreferenceFunction::Linear();
  EXPECT_EQ(exec::CanonicalPlanKey(convex1, 2),
            exec::CanonicalPlanKey(linear, 2));

  // -0.0 τ folds onto 0.0 (they compare equal everywhere execution looks).
  exec::PlanRequest zero = a;
  zero.tau_m = 0.0;
  exec::PlanRequest negzero = a;
  negzero.tau_m = -0.0;
  EXPECT_EQ(exec::CanonicalPlanKey(zero, 0), exec::CanonicalPlanKey(negzero, 0));

  // fm_copies is irrelevant — and therefore canonicalized away — when FM
  // is off.
  exec::PlanRequest copies = a;
  copies.fm_copies = 99;
  EXPECT_EQ(exec::CanonicalPlanKey(a, 2), exec::CanonicalPlanKey(copies, 2));
  copies.use_fm = true;
  exec::PlanRequest fm = a;
  fm.use_fm = true;
  EXPECT_FALSE(exec::CanonicalPlanKey(fm, 2) ==
               exec::CanonicalPlanKey(copies, 2));

  // Genuinely different requests split.
  exec::PlanRequest other_tau = a;
  other_tau.tau_m = 900.0;
  EXPECT_FALSE(exec::CanonicalPlanKey(a, 2) ==
               exec::CanonicalPlanKey(other_tau, 2));
  EXPECT_FALSE(exec::CanonicalPlanKey(a, 2) == exec::CanonicalPlanKey(a, 3));
}

TEST(Exec, PsiNormalizationIsBitExact) {
  // NormalizePsi rewrites ConvexProbability(1) → Linear; the cache then
  // serves either spelling from one entry, so their scores must be
  // bit-for-bit equal (std::pow(x, 1.0) == x). This pins the platform
  // assumption the normalization relies on.
  const PreferenceFunction convex1 = PreferenceFunction::ConvexProbability(1.0);
  const PreferenceFunction linear = PreferenceFunction::Linear();
  EXPECT_EQ(exec::NormalizePsi(convex1).kind(), linear.kind());
  EXPECT_EQ(exec::NormalizePsi(PreferenceFunction::ConvexProbability(2.0)).kind(),
            PreferenceFunction::Kind::kConvexProbability);
  for (double tau : {1.0, 750.0, 3333.3}) {
    for (int i = 0; i <= 1000; ++i) {
      const double d = tau * static_cast<double>(i) / 1000.0 * 1.001;
      EXPECT_EQ(convex1.Score(d, tau), linear.Score(d, tau))
          << "d=" << d << " tau=" << tau;
    }
  }
}

TEST(Exec, PlannerResolvesInstanceSolverAndFallback) {
  const Engine engine = MakeEngine();
  exec::ExecContext ctx;
  const exec::Planner planner(&ctx);

  exec::PlanRequest request;
  request.k = 5;
  request.tau_m = 800.0;
  const exec::QueryPlan plain = planner.Plan(request, engine.index(), 1);
  EXPECT_EQ(plain.instance, engine.index().InstanceFor(800.0));
  EXPECT_EQ(plain.solver, exec::SolverKind::kIncGreedy);
  EXPECT_TRUE(plain.cacheable);
  EXPECT_FALSE(plain.fm_fallback);

  request.use_fm = true;
  const exec::QueryPlan fm = planner.Plan(request, engine.index(), 1);
  EXPECT_EQ(fm.solver, exec::SolverKind::kFmGreedy);

  request.existing_services = {1, 2};
  const exec::QueryPlan fallback = planner.Plan(request, engine.index(), 1);
  EXPECT_EQ(fallback.solver, exec::SolverKind::kIncGreedy);
  EXPECT_TRUE(fallback.fm_fallback);

  exec::PlanRequest cost;
  cost.variant = exec::QueryVariant::kTopsCost;
  const exec::QueryPlan cost_plan = planner.Plan(cost, engine.index(), 1);
  EXPECT_EQ(cost_plan.solver, exec::SolverKind::kCostGreedy);
  EXPECT_FALSE(cost_plan.cacheable);

  // Batch-aware thread allocation: one thread per query once the batch
  // covers the worker budget, the full budget otherwise.
  exec::PlanRequest threaded = request;
  threaded.threads = 4;
  EXPECT_EQ(planner.Plan(threaded, engine.index(), 8).threads, 1u);
  EXPECT_EQ(planner.Plan(threaded, engine.index(), 2).threads, 4u);
}

TEST(Exec, FmFallbackRespectsExistingServices) {
  const Engine engine = MakeEngine();
  const std::vector<SiteId> es =
      engine.TopK(2, 800.0, PreferenceFunction::Binary()).selection.sites;
  // FM + ES falls back to Inc-Greedy, so the answer equals the non-FM
  // query (and never re-selects the existing services).
  const index::QueryResult with_fm =
      engine.TopK(3, 800.0, PreferenceFunction::Binary(), /*use_fm=*/true, es);
  const index::QueryResult without_fm =
      engine.TopK(3, 800.0, PreferenceFunction::Binary(), /*use_fm=*/false, es);
  ExpectBitIdentical(without_fm, with_fm, "fallback equals inc-greedy");
  for (SiteId s : with_fm.selection.sites) {
    EXPECT_EQ(std::find(es.begin(), es.end(), s), es.end());
  }
  EXPECT_GE(engine.ExecStats().fm_fallbacks, 1u);
}

TEST(Exec, StatsRegistryAccumulatesStagesAndInstances) {
  const Engine engine = MakeEngine();
  (void)engine.TopK(5, 600.0, PreferenceFunction::Binary());
  (void)engine.TopK(5, 1500.0, PreferenceFunction::Binary());
  const exec::StatsRegistry::Snapshot stats = engine.ExecStats();
  EXPECT_EQ(stats.plan.count, 2u);
  EXPECT_EQ(stats.cover_build.count, 2u);
  EXPECT_EQ(stats.solve.count, 2u);
  EXPECT_EQ(stats.assemble.count, 2u);
  EXPECT_EQ(stats.covers_built, 2u);
  EXPECT_GT(stats.cover_build.ewma_seconds, 0.0);
  // The two τ land on different instances; both are accounted.
  const size_t p_small = engine.index().InstanceFor(600.0);
  const size_t p_large = engine.index().InstanceFor(1500.0);
  ASSERT_NE(p_small, p_large);
  ASSERT_GT(stats.instances.size(), std::max(p_small, p_large));
  EXPECT_EQ(stats.instances[p_small].cover_builds, 1u);
  EXPECT_EQ(stats.instances[p_large].cover_builds, 1u);
  EXPECT_GT(stats.instances[p_small].last_cover_bytes, 0u);
}

// ---------------------------------------------------------------------------
// CoverCache (serve): build-once semantics, eviction, on/off equivalence.
// ---------------------------------------------------------------------------

TEST(CoverCache, BuildsOncePerKeyAcrossConcurrentCallers) {
  serve::CoverCache::Options options;
  options.capacity = 8;
  options.respect_env = false;  // the test must not depend on the CI matrix
  serve::CoverCache cache(options);
  ASSERT_TRUE(cache.enabled());

  const Engine engine = MakeEngine();
  const exec::CoverKey key{0, 123};
  std::atomic<int> builds{0};
  const auto build = [&]() -> exec::CoverPtr {
    builds.fetch_add(1);
    return std::make_shared<exec::BuiltCover>(exec::BuildCover(
        engine.index(), engine.store(), 800.0, /*instance=*/0, /*threads=*/1));
  };

  constexpr int kThreads = 8;
  std::vector<std::thread> pool;
  std::vector<exec::CoverPtr> got(kThreads);
  std::vector<uint8_t> reused(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      bool r = false;
      got[t] = cache.GetOrBuild(7, key, build, &r);
      reused[t] = r ? 1 : 0;
    });
  }
  for (auto& t : pool) t.join();

  EXPECT_EQ(builds.load(), 1);
  int builders = 0;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(got[t], nullptr);
    EXPECT_EQ(got[t], got[0]);  // pointer-equal: genuinely shared
    if (!reused[t]) ++builders;
  }
  EXPECT_EQ(builders, 1);
  const serve::CoverCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.resident_bytes, 0u);
}

TEST(CoverCache, VersionIsPartOfTheKeyAndLruEvicts) {
  serve::CoverCache::Options options;
  options.capacity = 2;
  options.shards = 1;
  options.respect_env = false;
  serve::CoverCache cache(options);
  const Engine engine = MakeEngine();
  int builds = 0;
  const auto build = [&]() -> exec::CoverPtr {
    ++builds;
    return std::make_shared<exec::BuiltCover>(exec::BuildCover(
        engine.index(), engine.store(), 700.0, 0, 1));
  };
  bool reused = false;
  const exec::CoverKey key{0, 42};
  (void)cache.GetOrBuild(1, key, build, &reused);
  (void)cache.GetOrBuild(2, key, build, &reused);  // new version: rebuild
  EXPECT_EQ(builds, 2);
  (void)cache.GetOrBuild(2, key, build, &reused);
  EXPECT_TRUE(reused);
  EXPECT_EQ(builds, 2);
  (void)cache.GetOrBuild(3, key, build, &reused);  // evicts version 1
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_GE(cache.stats().evictions, 1u);
  (void)cache.GetOrBuild(1, key, build, &reused);  // must rebuild
  EXPECT_FALSE(reused);
  EXPECT_EQ(builds, 4);
}

TEST(CoverCache, DisabledCacheDegeneratesToPlainBuilds) {
  serve::CoverCache::Options options;
  options.capacity = 0;
  options.respect_env = false;
  serve::CoverCache cache(options);
  EXPECT_FALSE(cache.enabled());
  int builds = 0;
  bool reused = true;
  const auto build = [&]() -> exec::CoverPtr {
    ++builds;
    return std::make_shared<exec::BuiltCover>();
  };
  (void)cache.GetOrBuild(1, exec::CoverKey{0, 1}, build, &reused);
  (void)cache.GetOrBuild(1, exec::CoverKey{0, 1}, build, &reused);
  EXPECT_EQ(builds, 2);
  EXPECT_FALSE(reused);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
}

// ---------------------------------------------------------------------------
// Serving-layer cover sharing: bit-identical on/off, shared across
// concurrent readers, TSan-clean.
// ---------------------------------------------------------------------------

index::QueryResult ServeReplay(const serve::ServeResult& served,
                               const Engine::QuerySpec& spec) {
  const Engine::QuerySpec canon = serve::CanonicalizeSpec(spec);
  return served.snapshot->query().Tops(canon.psi, canon.ToConfig(1));
}

TEST(Serving, CoverCacheOnOffIsBitIdentical) {
  const Engine engine = MakeEngine();
  serve::ServerOptions with;
  with.cover_cache.respect_env = false;  // force ON regardless of CI matrix
  serve::ServerOptions without;
  without.cover_cache.capacity = 0;
  without.cover_cache.respect_env = false;
  auto on = engine.Serve(with);
  auto off = engine.Serve(without);

  const std::vector<Engine::QuerySpec> specs = DuplicateTauBatch(24);
  for (const Engine::QuerySpec& spec : specs) {
    const serve::ServeResult a = on->Submit(spec);
    const serve::ServeResult b = off->Submit(spec);
    ExpectBitIdentical(b.result, a.result, "cover cache on/off");
  }
  // The duplicate-τ stream reused covers on the enabled server only.
  EXPECT_GT(on->stats().cover_cache.hits, 0u);
  EXPECT_EQ(on->stats().cover_cache.misses, 4u);
  EXPECT_EQ(off->stats().cover_cache.hits + off->stats().cover_cache.misses,
            0u);
}

TEST(Serving, ConcurrentDuplicateTauTrafficSharesCoversAndReplays) {
  const Engine engine = MakeEngine();
  serve::ServerOptions options;
  options.cover_cache.respect_env = false;
  options.updates.max_batch = 16;
  auto server = engine.Serve(options);

  const std::vector<Engine::QuerySpec> specs = DuplicateTauBatch(8);
  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 24;
  std::vector<std::vector<std::pair<size_t, serve::ServeResult>>> recorded(
      kReaders);
  std::atomic<bool> start{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int q = 0; q < kQueriesPerReader; ++q) {
        const size_t spec_index = (r * 3 + q) % specs.size();
        recorded[r].emplace_back(spec_index,
                                 server->Submit(specs[spec_index]));
      }
    });
  }
  // A live update stream publishes new versions mid-traffic, implicitly
  // invalidating cached covers (the version is part of the key).
  start.store(true, std::memory_order_release);
  for (int batch = 0; batch < 4; ++batch) {
    for (int i = 0; i < 6; ++i) {
      server->MutateAddTrajectory({0, 1, 2, 14, 26, 27});
    }
    server->Flush();
  }
  for (auto& t : readers) t.join();
  server->Shutdown();

  for (int r = 0; r < kReaders; ++r) {
    for (const auto& [spec_index, served] : recorded[r]) {
      ExpectBitIdentical(ServeReplay(served, specs[spec_index]), served.result,
                         "reader replay");
    }
  }
  const serve::ServerStats stats = server->stats();
  // Duplicate-τ traffic means most queries reused a cover (result-cache
  // hits never even reach the cover stage, so hits + result hits bound
  // the total from below loosely).
  EXPECT_GT(stats.cover_cache.hits, 0u);
  EXPECT_GT(stats.exec.covers_shared, 0u);
  EXPECT_GT(stats.exec.solve.count, 0u);
}

TEST(Serving, PermutedExistingServicesHitTheResultCache) {
  const Engine engine = MakeEngine();
  auto server = engine.Serve();
  const std::vector<SiteId> es =
      engine.TopK(3, 800.0, PreferenceFunction::Binary()).selection.sites;
  ASSERT_GE(es.size(), 3u);

  Engine::QuerySpec spec;
  spec.k = 4;
  spec.tau_m = 800.0;
  spec.existing_services = es;
  const serve::ServeResult first = server->Submit(spec);
  EXPECT_FALSE(first.cache_hit);

  // Permute + duplicate the ES list: same canonical query, so the result
  // cache must hit with the bit-identical answer.
  spec.existing_services = {es[2], es[0], es[1], es[0]};
  const serve::ServeResult second = server->Submit(spec);
  EXPECT_TRUE(second.cache_hit);
  ExpectBitIdentical(first.result, second.result, "permuted ES cache hit");

  // ψ spelling normalization: ConvexProbability(1) ≡ Linear.
  Engine::QuerySpec linear;
  linear.k = 4;
  linear.tau_m = 800.0;
  linear.psi = PreferenceFunction::Linear();
  Engine::QuerySpec convex1 = linear;
  convex1.psi = PreferenceFunction::ConvexProbability(1.0);
  const serve::ServeResult lin = server->Submit(linear);
  EXPECT_FALSE(lin.cache_hit);
  const serve::ServeResult cvx = server->Submit(convex1);
  EXPECT_TRUE(cvx.cache_hit);
  ExpectBitIdentical(lin.result, cvx.result, "psi normalization cache hit");
}

}  // namespace
}  // namespace netclus
