#include "exec/executor.h"

#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "netclus/cluster_index.h"
#include "tops/fm_greedy.h"
#include "tops/inc_greedy.h"
#include "tops/variants.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace netclus::exec {

namespace {

using tops::SiteId;

}  // namespace

Executor::Executor(const index::MultiIndex* index,
                   const traj::TrajectoryStore* store,
                   const tops::SiteSet* sites, ExecContext* ctx,
                   CoverHooks hooks)
    : index_(index), store_(store), sites_(sites), ctx_(ctx),
      hooks_(std::move(hooks)) {}

void Executor::ValidatePlan(const QueryPlan& plan) const {
  if (plan.variant == QueryVariant::kTopsCost &&
      plan.site_costs.size() != sites_->size()) {
    throw std::invalid_argument(
        "Tops: site_costs must have one entry per site (got " +
        std::to_string(plan.site_costs.size()) + ", want " +
        std::to_string(sites_->size()) + ")");
  }
  if (plan.variant == QueryVariant::kTopsCapacity &&
      plan.site_capacities.size() != sites_->size()) {
    throw std::invalid_argument(
        "Tops: site_capacities must have one entry per site (got " +
        std::to_string(plan.site_capacities.size()) + ", want " +
        std::to_string(sites_->size()) + ")");
  }
}

CoverPtr Executor::ObtainCover(const QueryPlan& plan, uint32_t build_threads,
                               bool* reused) const {
  const auto build = [&]() -> CoverPtr {
    auto cover = std::make_shared<BuiltCover>(
        BuildCover(*index_, *store_, plan.tau_m, plan.instance, build_threads));
    ctx_->stats.RecordCoverBuild(plan.instance, cover->build_seconds,
                                 cover->traverse_seconds,
                                 cover->transpose_seconds, cover->bytes);
    return cover;
  };
  if (hooks_.acquire) {
    CoverPtr cover = hooks_.acquire(plan.cover_key(), build, reused);
    if (*reused) ctx_->stats.RecordCoverShared();
    return cover;
  }
  *reused = false;
  return build();
}

tops::Selection Executor::SolveStage(const QueryPlan& plan,
                                     const BuiltCover& cover,
                                     double* stage_seconds) const {
  util::WallTimer timer;

  // Map existing services to their clusters' representatives, preserving
  // the plan's (caller's) order — Inc-Greedy folds ES in input order.
  std::vector<SiteId> existing_reps;
  if (plan.variant == QueryVariant::kTops && !plan.existing_services.empty()) {
    std::unordered_map<SiteId, SiteId> rep_index_of;
    for (SiteId i = 0; i < cover.rep_sites.size(); ++i) {
      rep_index_of[cover.rep_sites[i]] = i;
    }
    const index::ClusterIndex& instance = index_->instance(plan.instance);
    for (SiteId es : plan.existing_services) {
      const uint32_t g = instance.cluster_of(sites_->node(es));
      const SiteId rep = instance.cluster(g).representative;
      if (rep == tops::kInvalidSite) continue;
      auto it = rep_index_of.find(rep);
      if (it != rep_index_of.end()) existing_reps.push_back(it->second);
    }
  }

  tops::Selection clustered;
  SolverKind ran = SolverKind::kIncGreedy;
  switch (plan.variant) {
    case QueryVariant::kTops: {
      // The FM eligibility rule is decided on the *mapped* ES (which can
      // turn out empty even when the raw list is not), exactly like the
      // pre-refactor path.
      if (plan.use_fm && plan.psi.is_binary() && existing_reps.empty()) {
        tops::FmGreedyConfig fm_config;
        fm_config.k = plan.k;
        fm_config.num_sketches = plan.fm_copies;
        fm_config.threads = plan.threads;
        clustered = FmGreedy(cover.approx, fm_config).selection;
        ran = SolverKind::kFmGreedy;
      } else {
        if (plan.use_fm && plan.psi.is_binary()) {
          ctx_->stats.RecordFmFallback();
          if (!ctx_->fm_fallback_warned.exchange(true)) {
            // Once per engine (not per call site): the flag lives in the
            // shared ExecContext, so NC_LOG_WARNING_ONCE would be wrong —
            // it is once per *process*.
            NC_SLOG_WARNING("fm_fallback")
                .Kv("reason", "FM-greedy has no existing-services support")
                .Kv("action", "falling back to Inc-Greedy so ES is respected")
                .Kv("note", "further fallbacks on this engine are silent");
          }
        }
        tops::GreedyConfig greedy_config;
        greedy_config.k = plan.k;
        greedy_config.existing_services = existing_reps;
        greedy_config.threads = plan.threads;
        clustered = IncGreedy(cover.approx, plan.psi, greedy_config);
      }
      break;
    }
    case QueryVariant::kTopsCost: {
      tops::CostConfig cost_config;
      cost_config.budget = plan.budget;
      cost_config.site_costs.reserve(cover.rep_sites.size());
      for (SiteId site : cover.rep_sites) {
        cost_config.site_costs.push_back(plan.site_costs[site]);
      }
      cost_config.threads = plan.threads;
      clustered = CostGreedy(cover.approx, plan.psi, cost_config).selection;
      ran = SolverKind::kCostGreedy;
      break;
    }
    case QueryVariant::kTopsCapacity: {
      tops::CapacityConfig capacity_config;
      capacity_config.k = plan.k;
      capacity_config.site_capacities.reserve(cover.rep_sites.size());
      for (SiteId site : cover.rep_sites) {
        capacity_config.site_capacities.push_back(plan.site_capacities[site]);
      }
      capacity_config.threads = plan.threads;
      clustered =
          CapacityGreedy(cover.approx, plan.psi, capacity_config).selection;
      ran = SolverKind::kCapacityGreedy;
      break;
    }
  }
  *stage_seconds = timer.Seconds();
  ctx_->stats.RecordSolve(ran, *stage_seconds);
  return clustered;
}

index::QueryResult Executor::Assemble(const QueryPlan& plan,
                                      const BuiltCover& cover,
                                      tops::Selection clustered,
                                      double cover_seconds,
                                      uint64_t cover_bytes,
                                      bool cover_shared) const {
  util::WallTimer timer;
  index::QueryResult out;
  out.selection = std::move(clustered);
  // The solver selected clustered-space indices; report real SiteIds.
  std::vector<SiteId> real_sites;
  real_sites.reserve(out.selection.sites.size());
  for (SiteId rep_index : out.selection.sites) {
    real_sites.push_back(cover.rep_sites[rep_index]);
  }
  out.selection.sites = std::move(real_sites);
  out.instance_used = plan.instance;
  out.clusters_considered = cover.rep_sites.size();
  out.cover_build_seconds = cover_seconds;
  out.transient_bytes = cover_bytes;
  out.cover_shared = cover_shared;
  ctx_->stats.RecordAssemble(timer.Seconds());
  return out;
}

index::QueryResult Executor::ExecuteOnCover(const QueryPlan& plan,
                                            const CoverPtr& cover,
                                            bool cover_reused) const {
  util::WallTimer total;
  double solve_seconds = 0.0;
  tops::Selection clustered = SolveStage(plan, *cover, &solve_seconds);
  index::QueryResult out =
      Assemble(plan, *cover, std::move(clustered),
               cover_reused ? 0.0 : cover->build_seconds,
               cover_reused ? 0 : cover->bytes, cover_reused);
  out.total_seconds = total.Seconds();
  return out;
}

index::QueryResult Executor::Execute(const QueryPlan& plan) const {
  util::WallTimer total;
  ValidatePlan(plan);
  bool reused = false;
  const CoverPtr cover = ObtainCover(plan, plan.threads, &reused);
  index::QueryResult out = ExecuteOnCover(plan, cover, reused);
  out.total_seconds = total.Seconds();
  return out;
}

std::vector<index::QueryResult> Executor::ExecuteBatch(
    std::span<const QueryPlan> plans, uint32_t threads) const {
  if (plans.empty()) return {};
  for (const QueryPlan& plan : plans) ValidatePlan(plan);

  // Group plans by cover identity (first-appearance order, so the layout
  // is deterministic regardless of thread count).
  std::unordered_map<CoverKey, size_t, CoverKeyHash> group_of;
  std::vector<size_t> plan_group(plans.size());
  std::vector<size_t> group_leader;  // first plan index of each group
  std::vector<size_t> group_size;
  for (size_t i = 0; i < plans.size(); ++i) {
    const auto [it, inserted] =
        group_of.try_emplace(plans[i].cover_key(), group_leader.size());
    if (inserted) {
      group_leader.push_back(i);
      group_size.push_back(0);
    }
    plan_group[i] = it->second;
    ++group_size[it->second];
  }

  // Stage 1 — CoverBuild, once per distinct (instance, τ). Same
  // two-regime rule as the solve fan-out: with at least one group per
  // worker the groups are the unit of concurrency.
  const unsigned resolved = util::ResolveThreads(threads);
  const uint32_t per_build_threads =
      group_leader.size() >= resolved ? 1 : threads;
  std::vector<CoverPtr> covers(group_leader.size());
  std::vector<uint8_t> group_reused(group_leader.size(), 0);
  const auto build_group = [&](size_t g) {
    bool reused = false;
    covers[g] = ObtainCover(plans[group_leader[g]], per_build_threads, &reused);
    group_reused[g] = reused ? 1 : 0;
  };
  if (per_build_threads == 1) {
    util::ParallelFor(
        threads, group_leader.size(),
        [&](size_t begin, size_t end) {
          for (size_t g = begin; g < end; ++g) build_group(g);
        },
        /*grain=*/1);
  } else {
    for (size_t g = 0; g < group_leader.size(); ++g) build_group(g);
  }

  // Stages 2+3 — Solve + Assemble per plan, on the shared covers. Cover
  // cost is amortized over the group (cache-served covers cost nothing
  // here; the building query already paid).
  const uint32_t per_query_threads = plans.size() >= resolved ? 1 : threads;
  const auto answer = [&](size_t i) {
    util::WallTimer own_timer;  // the query's own (non-shared) stages
    const QueryPlan& plan = plans[i];
    const size_t g = plan_group[i];
    const BuiltCover& cover = *covers[g];
    const bool from_cache = group_reused[g] != 0;
    const bool shared = from_cache || group_size[g] > 1;
    // Every non-leader solve reuses the group's cover (the leader's own
    // cache reuse, if any, was already counted in ObtainCover).
    if (i != group_leader[g]) ctx_->stats.RecordCoverShared();
    double solve_seconds = 0.0;
    tops::Selection clustered = SolveStage(plan, cover, &solve_seconds);
    const double cover_seconds =
        from_cache ? 0.0
                   : cover.build_seconds / static_cast<double>(group_size[g]);
    const uint64_t cover_bytes =
        from_cache ? 0 : cover.bytes / group_size[g];
    index::QueryResult out = Assemble(plan, cover, std::move(clustered),
                                      cover_seconds, cover_bytes, shared);
    // Amortized share of the cover plus everything this query ran itself
    // (solve + assemble) — the batch analogue of Execute()'s wall clock.
    out.total_seconds = cover_seconds + own_timer.Seconds();
    return out;
  };
  if (per_query_threads == 1) {
    return util::ParallelMap<index::QueryResult>(threads, plans.size(), answer,
                                                 /*grain=*/1);
  }
  std::vector<index::QueryResult> results;
  results.reserve(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) results.push_back(answer(i));
  return results;
}

}  // namespace netclus::exec
