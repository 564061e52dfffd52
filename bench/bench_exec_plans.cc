// Query planning & cross-query cover sharing (src/exec).
//
// The online phase is dominated by building the approximate trajectory
// cover T̂C for the selected (instance, τ). This bench measures what the
// executor's cover-sharing stage buys on the acceptance workload: a
// 32-query batch containing ≤4 distinct τ values, answered
//  * per-query (the pre-refactor TopKBatch shape: every query builds its
//    own cover), vs
//  * through Executor::ExecuteBatch (plans grouped by (instance, τ), one
//    cover build per group), vs
//  * through NetClusServer::SubmitBatch with the snapshot-versioned
//    CoverCache on and off (concurrent readers rendezvous on one build).
//
// paper_shape: the shared batch builds 4 covers instead of 32 and runs
// ≥2x faster wall-clock; the serving path reports a 28/32 cover-cache
// hit rate in server stats.
//
// Besides the stdout table, rows are written as JSON to BENCH_exec.json
// (override with NETCLUS_BENCH_JSON) so CI can track the perf trajectory.
#include "bench_common.h"

#include <fstream>

#include "api/engine.h"
#include "exec/executor.h"
#include "exec/planner.h"
#include "serve/server.h"

namespace {

using namespace netclus;

std::vector<Engine::QuerySpec> MakeBatch(size_t count) {
  const double taus[] = {600.0, 900.0, 1200.0, 1500.0};
  std::vector<Engine::QuerySpec> specs;
  specs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Engine::QuerySpec spec;
    // All (k, τ) pairs distinct so the serving measurement exercises the
    // cover cache, not the result cache.
    spec.k = 2 + static_cast<uint32_t>((i / 4) % 8);
    spec.tau_m = taus[i % 4];
    specs.push_back(spec);
  }
  return specs;
}

double BestOf(int reps, const std::function<double()>& run) {
  double best = run();
  for (int r = 1; r < reps; ++r) best = std::min(best, run());
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace netclus;
  bench::PrintHeader(
      "Exec", "Query planning & cross-query cover sharing (src/exec)",
      "a 32-query batch with <=4 distinct tau builds 4 covers instead of "
      "32 and runs >=2x faster; the serving cover cache reports a 28/32 "
      "hit rate");

  data::Dataset d = bench::MakeDataset("beijing-lite", 0.15);
  graph::RoadNetwork network = *d.network;
  tops::SiteSet sites = d.sites;
  Engine::Options engine_options;
  engine_options.index.tau_min_m = 400.0;
  engine_options.index.tau_max_m = 6000.0;
  Engine engine(std::move(network), std::move(sites), engine_options);
  for (traj::TrajId t = 0; t < d.store->total_count(); ++t) {
    if (d.store->is_alive(t)) {
      engine.AddTrajectory(d.store->trajectory(t).nodes());
    }
  }
  engine.BuildIndex();
  std::printf("corpus: %zu trajectories, %zu sites, %zu index instances\n",
              engine.store().live_count(), engine.sites().size(),
              engine.index().num_instances());

  const size_t batch = static_cast<size_t>(
      util::GetEnvInt("NETCLUS_EXEC_BATCH", 32));
  const int reps =
      static_cast<int>(util::GetEnvInt("NETCLUS_EXEC_REPS", 3));
  const std::vector<Engine::QuerySpec> specs = MakeBatch(batch);
  size_t distinct = 0;
  {
    exec::ExecContext probe_ctx;
    const exec::Planner probe(&probe_ctx);
    std::unordered_map<exec::CoverKey, int, exec::CoverKeyHash> keys;
    for (const auto& spec : specs) {
      keys[probe
               .Plan(exec::RequestFromConfig(exec::QueryVariant::kTops,
                                             spec.psi, spec.ToConfig(0)),
                     engine.index(), specs.size())
               .cover_key()]++;
    }
    distinct = keys.size();
  }

  // Plans once; both in-process measurements execute the same plans.
  exec::ExecContext ctx;
  const exec::Planner planner(&ctx);
  std::vector<exec::QueryPlan> plans;
  plans.reserve(specs.size());
  for (const auto& spec : specs) {
    plans.push_back(planner.Plan(
        exec::RequestFromConfig(exec::QueryVariant::kTops, spec.psi,
                                spec.ToConfig(0)),
        engine.index(), specs.size()));
  }
  const exec::Executor executor(&engine.index(), &engine.store(),
                                &engine.sites(), &ctx);

  // Baseline: every query builds its own cover (pre-refactor shape).
  const double unshared_s = BestOf(reps, [&] {
    util::WallTimer timer;
    util::ParallelMap<index::QueryResult>(
        0, plans.size(), [&](size_t i) { return executor.Execute(plans[i]); },
        /*grain=*/1);
    return timer.Seconds();
  });

  // Shared: grouped batch, one cover per distinct (instance, τ).
  const double shared_s = BestOf(reps, [&] {
    util::WallTimer timer;
    (void)executor.ExecuteBatch(plans, 0);
    return timer.Seconds();
  });
  const double speedup = shared_s > 0.0 ? unshared_s / shared_s : 0.0;

  // Serving path: SubmitBatch with the CoverCache off / on. The result
  // cache is disabled so the measurement isolates cover sharing.
  const auto serve_once = [&](bool cover_cache_on) {
    serve::ServerOptions options;
    options.cache.capacity = 0;
    options.cover_cache.respect_env = false;
    if (!cover_cache_on) options.cover_cache.capacity = 0;
    auto server = engine.Serve(options);
    util::WallTimer timer;
    (void)server->SubmitBatch(specs);
    const double seconds = timer.Seconds();
    const serve::ServerStats stats = server->stats();
    server->Shutdown();
    return std::make_pair(seconds, stats);
  };
  double serve_off_s = 1e300, serve_on_s = 1e300;
  serve::ServerStats on_stats;
  for (int r = 0; r < reps; ++r) {
    serve_off_s = std::min(serve_off_s, serve_once(false).first);
    const auto [seconds, stats] = serve_once(true);
    if (seconds < serve_on_s) {
      serve_on_s = seconds;
      on_stats = stats;
    }
  }
  const uint64_t lookups = on_stats.cover_cache.hits + on_stats.cover_cache.misses;
  const double hit_rate =
      lookups > 0 ? static_cast<double>(on_stats.cover_cache.hits) /
                        static_cast<double>(lookups)
                  : 0.0;

  util::Table table({"mode", "queries", "distinct_tau", "covers_built",
                     "wall_s", "speedup", "cover_hit"});
  table.Row()
      .Cell("per-query")
      .Cell(static_cast<uint64_t>(specs.size()))
      .Cell(static_cast<uint64_t>(distinct))
      .Cell(static_cast<uint64_t>(specs.size()))
      .Cell(unshared_s, 4)
      .Cell(1.0, 2)
      .Cell(0.0, 2);
  table.Row()
      .Cell("shared-batch")
      .Cell(static_cast<uint64_t>(specs.size()))
      .Cell(static_cast<uint64_t>(distinct))
      .Cell(static_cast<uint64_t>(distinct))
      .Cell(shared_s, 4)
      .Cell(speedup, 2)
      .Cell(0.0, 2);
  table.Row()
      .Cell("serve-cache-off")
      .Cell(static_cast<uint64_t>(specs.size()))
      .Cell(static_cast<uint64_t>(distinct))
      .Cell(static_cast<uint64_t>(specs.size()))
      .Cell(serve_off_s, 4)
      .Cell(1.0, 2)
      .Cell(0.0, 2);
  table.Row()
      .Cell("serve-cache-on")
      .Cell(static_cast<uint64_t>(specs.size()))
      .Cell(static_cast<uint64_t>(distinct))
      .Cell(static_cast<uint64_t>(on_stats.cover_cache.misses))
      .Cell(serve_on_s, 4)
      .Cell(serve_on_s > 0.0 ? serve_off_s / serve_on_s : 0.0, 2)
      .Cell(hit_rate, 2);
  table.PrintText(std::cout);
  const exec::StatsRegistry::Snapshot exec_stats = ctx.stats.snapshot();
  std::printf("exec stats: plan ewma %.1f us, cover ewma %.1f ms "
              "(traverse %.1f ms, transpose %.1f ms), solve ewma %.1f ms\n",
              exec_stats.plan.ewma_seconds * 1e6,
              exec_stats.cover_build.ewma_seconds * 1e3,
              exec_stats.cover_traverse.ewma_seconds * 1e3,
              exec_stats.cover_transpose.ewma_seconds * 1e3,
              exec_stats.solve.ewma_seconds * 1e3);

  const std::string json_path = bench::JsonOutPath(argc, argv, "BENCH_exec.json");
  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"exec_plans\",\n  \"rows\": [\n"
       << "    {\"queries\": " << specs.size()
       << ", \"distinct_tau\": " << distinct
       << ", \"unshared_s\": " << unshared_s
       << ", \"shared_s\": " << shared_s << ", \"speedup\": " << speedup
       << ", \"serve_off_s\": " << serve_off_s
       << ", \"serve_on_s\": " << serve_on_s
       << ", \"cover_hit_rate\": " << hit_rate
       << ", \"cover_cache_hits\": " << on_stats.cover_cache.hits
       << ", \"cover_cache_misses\": " << on_stats.cover_cache.misses
       << ", \"cover_traverse_ewma_ms\": "
       << exec_stats.cover_traverse.ewma_seconds * 1e3
       << ", \"cover_transpose_ewma_ms\": "
       << exec_stats.cover_transpose.ewma_seconds * 1e3 << "}\n"
       << "  ]\n}\n";
  std::printf("\nwrote %s\n", json_path.c_str());

  const bool ok = speedup >= 1.0 && json.good();
  return ok ? 0 : 1;
}
