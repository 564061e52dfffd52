#include "serving.h"

#include <algorithm>
#include <cmath>

#include "exec/executor.h"
#include "exec/planner.h"
#include "traj/trip_generator.h"

namespace perfbench {

ServingWorld SetUpServing(const RunConfig& cfg, Result* result) {
  std::vector<double> setup_s, build_s;
  ServingWorld sw;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    sw = ServingWorld();  // release the previous server and engine first
    const int64_t t0 = NowNs();
    double build = 0.0;
    sw.engine = BuildEngine(cfg.threads, /*all_sites=*/false, &build);
    sw.server = sw.engine->Serve();
    setup_s.push_back((NowNs() - t0) / 1e9);
    build_s.push_back(build);
  }
  result->Add("setup_s", Median(setup_s), "s", setup_s.size(), Kind::kEndToEnd);
  if (cfg.trace) {
    result->Add("netclus.build_s", Median(build_s), "s", build_s.size(),
                Kind::kLayer);
  }
  return sw;
}

UpdateStep ApplyUpdate(serve::NetClusServer* server, UpdateStream* stream) {
  UpdateStep step;
  UpdateStream::Op op = stream->Next();
  serve::UpdateOp request;
  switch (op.kind) {
    case UpdateStream::Op::Kind::kAddTrajectory:
      request = serve::UpdateOp::AddTrajectory(op.nodes);
      break;
    case UpdateStream::Op::Kind::kRemoveTrajectory:
      request = serve::UpdateOp::RemoveTrajectory(op.traj);
      break;
    case UpdateStream::Op::Kind::kAddSite:
      request = serve::UpdateOp::AddSite(op.node);
      break;
  }
  step.start_ns = NowNs();
  const serve::UpdateTicket ticket = server->Mutate(std::move(request));
  step.mutated_ns = NowNs();
  server->Flush();
  step.flushed_ns = NowNs();
  step.accepted = ticket.accepted;
  stream->Commit(op, ticket.accepted, ticket.traj);
  return step;
}

void AddPublishLayers(uint64_t batches, double apply_seconds,
                      const std::vector<double>& publish_ms, Result* result) {
  const double apply_ms = batches > 0 ? apply_seconds * 1e3 / batches : 0.0;
  double publish_mean_ms = 0.0;
  for (const double ms : publish_ms) publish_mean_ms += ms / publish_ms.size();
  const uint64_t n = publish_ms.size();
  // Base count of the publish metrics: set by the update pacing, so an
  // info line, not a metric.
  result->Add("serve.publishes", static_cast<double>(batches), "count", batches,
              Kind::kInfo);
  result->Add("serve.apply_ms", apply_ms, "ms", batches, Kind::kLayer);
  result->Add("serve.publish_p50_ms", Quantile(publish_ms, 0.5), "ms", n, Kind::kLayer);
  result->Add("serve.publish_p95_ms", Quantile(publish_ms, 0.95), "ms", n, Kind::kLayer);
  // Both means: what a publish costs beyond the server's own apply time.
  result->Add("serve.publish_overhead_ms", n > 0 ? publish_mean_ms - apply_ms : 0.0,
              "ms", n, Kind::kLayer);
}

void AddServerLayers(const serve::ServerStats& start,
                     const serve::ServerStats& end, uint64_t requests,
                     const std::vector<double>& publish_ms, Result* result) {
  const auto layer = [&](const char* name, double value, const char* unit,
                         uint64_t n) {
    result->Add(name, value, unit, n, Kind::kLayer);
  };
  const auto ratio = [](uint64_t num, uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  const uint64_t qc_hits = end.cache.hits - start.cache.hits;
  const uint64_t qc_lookups = qc_hits + end.cache.misses - start.cache.misses;
  const uint64_t cc_hits = end.cover_cache.hits - start.cover_cache.hits;
  const uint64_t cc_lookups =
      cc_hits + end.cover_cache.misses - start.cover_cache.misses;
  // Base counts are info lines, not metrics: requests is the offered load,
  // fixed by the benchmark.
  result->Add("serve.requests", static_cast<double>(requests), "count", requests,
              Kind::kInfo);
  // Lookups are the bases (n) of the hit ratios.
  result->Add("serve.query_cache_lookups", static_cast<double>(qc_lookups),
              "count", qc_lookups, Kind::kInfo);
  layer("serve.query_cache_hit_ratio", ratio(qc_hits, qc_lookups), "ratio",
        qc_lookups);
  result->Add("serve.cover_cache_lookups", static_cast<double>(cc_lookups),
              "count", cc_lookups, Kind::kInfo);
  layer("serve.cover_cache_hit_ratio", ratio(cc_hits, cc_lookups), "ratio",
        cc_lookups);
  const uint64_t carried = (end.cache.carried - start.cache.carried) +
                           (end.cover_cache.carried - start.cover_cache.carried);
  layer("serve.carried", static_cast<double>(carried), "count", requests);

  AddPublishLayers(end.updates.batches_published - start.updates.batches_published,
                   end.updates.apply_seconds - start.updates.apply_seconds,
                   publish_ms, result);

  const double busy_s =
      static_cast<double>(end.scheduler.busy_ns - start.scheduler.busy_ns) / 1e9;
  const double uptime_s =
      end.scheduler.uptime_seconds - start.scheduler.uptime_seconds;
  // Worker count, recovered from the scheduler's own utilisation figure
  // (busy / (workers * uptime)) at the end of the run.
  const double workers =
      end.scheduler.utilization > 0.0
          ? std::max(1.0, std::round(static_cast<double>(end.scheduler.busy_ns) /
                                     1e9 /
                                     (end.scheduler.utilization *
                                      end.scheduler.uptime_seconds)))
          : 1.0;
  layer("util.sched_utilization",
        uptime_s > 0.0 ? busy_s / (workers * uptime_s) : 0.0, "ratio", 1);
  layer("util.sched_stolen",
        static_cast<double>(end.scheduler.stolen - start.scheduler.stolen),
        "count", end.scheduler.executed - start.scheduler.executed);
}

void AddNetclusProbes(const serve::IndexSnapshot& snap,
                      const std::vector<graph::NodeId>& free_nodes,
                      uint64_t seed, SpanRecorder* spans, Result* result) {
  constexpr int kClones = 5;
  constexpr size_t kOps = 32;
  std::vector<double> clone_ms, add_us, remove_us, site_us;
  std::unique_ptr<index::MultiIndex> clone;
  for (int i = 0; i < kClones; ++i) {
    const int64_t t0 = NowNs();
    auto copy = std::make_unique<index::MultiIndex>(snap.index().Clone());
    const int64_t t1 = NowNs();
    spans->Add("netclus.clone", t0, t1, 0, 0);
    clone_ms.push_back(NsToMs(t1 - t0));
    clone = std::move(copy);
  }
  traj::TrajectoryStore store(snap.store());
  tops::SiteSet sites(snap.sites());

  std::vector<traj::TrajId> oldest;
  for (traj::TrajId t = 0; t < store.total_count() && oldest.size() < kOps; ++t) {
    if (store.is_alive(t)) oldest.push_back(t);
  }
  util::Rng rng(seed);
  const auto n = static_cast<uint64_t>(snap.network().num_nodes());
  while (add_us.size() < kOps) {
    const auto src = static_cast<graph::NodeId>(rng.UniformInt(n));
    const auto dst = static_cast<graph::NodeId>(rng.UniformInt(n));
    if (src == dst) continue;
    auto path = traj::RoutePerturbed(snap.network(), src, dst, 0.3, rng.Next());
    if (path.size() < 2) continue;
    const traj::TrajId id = store.Add(std::move(path));
    const int64_t t0 = NowNs();
    clone->AddTrajectory(store, id);
    const int64_t t1 = NowNs();
    spans->Add("netclus.add_trajectory", t0, t1, 0, 0);
    add_us.push_back((t1 - t0) / 1e3);
  }
  for (const traj::TrajId t : oldest) {
    store.Remove(t);
    const int64_t t0 = NowNs();
    clone->RemoveTrajectory(t);
    const int64_t t1 = NowNs();
    spans->Add("netclus.remove_trajectory", t0, t1, 0, 0);
    remove_us.push_back((t1 - t0) / 1e3);
  }
  for (size_t i = 0; i < free_nodes.size() && site_us.size() < kOps; ++i) {
    const tops::SiteId s = sites.Add(free_nodes[i]);
    const int64_t t0 = NowNs();
    clone->AddSite(store, sites, s);
    const int64_t t1 = NowNs();
    spans->Add("netclus.add_site", t0, t1, 0, 0);
    site_us.push_back((t1 - t0) / 1e3);
  }
  result->Add("netclus.clone_ms", Median(clone_ms), "ms", clone_ms.size(), Kind::kLayer);
  result->Add("netclus.add_traj_us", Median(add_us), "us", add_us.size(), Kind::kLayer);
  result->Add("netclus.remove_traj_us", Median(remove_us), "us", remove_us.size(),
              Kind::kLayer);
  result->Add("netclus.add_site_us", Median(site_us), "us", site_us.size(), Kind::kLayer);
}

index::QueryResult Replay(const serve::IndexSnapshot& snap,
                          const Engine::QuerySpec& spec) {
  exec::ExecContext ctx;
  const exec::Planner planner(&ctx);
  // The server plans the canonical spec (sorted, deduplicated existing
  // services), so that is what a replay must run.
  const Engine::QuerySpec canon = serve::CanonicalizeSpec(spec);
  const exec::QueryPlan plan = planner.Plan(canon.ToRequest(1), snap.index(), 1);
  return exec::Executor(&snap.index(), &snap.store(), &snap.sites(), &ctx)
      .Execute(plan);
}

std::vector<Engine::QuerySpec> UtilitySpecs(uint64_t seed, size_t num_sites) {
  constexpr size_t kSpecs = 4;
  std::vector<Engine::QuerySpec> specs;
  util::Rng rng(seed);
  SpecStream stream(SpecMix::kServe, num_sites, nullptr);
  while (specs.size() < kSpecs) {
    Engine::QuerySpec spec = stream.Next(rng);
    if (ExactComparable(spec)) specs.push_back(std::move(spec));
  }
  return specs;
}

void AddSnapshotUtility(const serve::IndexSnapshot& snap, uint32_t threads,
                        const std::vector<Engine::QuerySpec>& specs,
                        Result* result) {
  // An engine over the snapshot's corpus and sites (no index): the exact
  // baselines run on it. Trajectory ids are renumbered, which utilities
  // do not depend on; site ids are kept.
  Engine::Options options;
  options.threads = threads;
  Engine exact(snap.network(), snap.sites(), options);
  const traj::TrajectoryStore& store = snap.store();
  for (traj::TrajId t = 0; t < store.total_count(); ++t) {
    if (store.is_alive(t)) exact.AddTrajectory(store.trajectory(t).nodes());
  }
  std::vector<index::QueryResult> answers;
  for (const Engine::QuerySpec& spec : specs) answers.push_back(Replay(snap, spec));
  double min_ratio = 0.0;
  const double ratio = UtilityRatio(exact, specs, answers, &min_ratio);
  result->Add("utility_ratio", ratio, "ratio", specs.size(), Kind::kEndToEnd);
  AddUtilityGate(result, ratio, min_ratio, specs.size());
}

}  // namespace perfbench
