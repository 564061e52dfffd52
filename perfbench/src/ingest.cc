// ingest: writes only. One writer in a closed loop against
// Engine::Serve(): each step is one op of the sliding-window update stream
// (add a held-out trajectory / remove the oldest / every tenth op a site
// add), sent as Mutate and followed by Flush, so every op is its own
// copy-on-write publish. No reads are sent, so cover builds do no work:
// this is the workload on which a query-path change must show no effect,
// and the one where a per-publish cost (clone, apply, durability) shows.
//
// The run is a fixed number of rounds. Every publish leaves Sec. 6
// overlays behind (tombstones, appended postings) that each later clone
// and remove pays for, so the per-op cost grows along a stream (about
// 3 ms to 17 ms over 3000 ops). Each round therefore starts a fresh server
// from the engine and a fresh stream: every round covers the same stretch
// of that growth, and the run's tail samples come from all of its time
// instead of from its last seconds.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "serving.h"
#include "util/memory.h"

namespace perfbench {
namespace {

constexpr size_t kWarmupOps = 50;  ///< per round, untimed
constexpr size_t kRoundOps = 500;  ///< timed ops per round
/// Timed ops per second of --seconds (rounded up to whole rounds).
constexpr double kOpsPerSecond = 200.0;

}  // namespace

Result RunIngest(const RunConfig& cfg) {
  Result result;
  ServingWorld sw = SetUpServing(cfg, &result);
  const Engine& engine = *sw.engine;
  const int64_t live_before = static_cast<int64_t>(engine.store().live_count());
  const int64_t sites_before = static_cast<int64_t>(engine.sites().size());
  const uint64_t want_ops = std::max<uint64_t>(
      kMinRequests, static_cast<uint64_t>(std::llround(cfg.seconds * kOpsPerSecond)));
  const uint64_t rounds = (want_ops + kRoundOps - 1) / kRoundOps;

  SpanRecorder spans;
  std::vector<double> publish_ms, traced_ms, plain_ms;
  uint64_t issued = 0, applied = 0, batches = 0, rounds_matched = 0;
  double apply_seconds = 0.0, elapsed = 0.0, peak_rss_mb = 0.0;
  std::string last_counts;
  serve::SnapshotPtr final_snap;
  std::vector<graph::NodeId> free_nodes;
  for (uint64_t round = 0; round < rounds; ++round) {
    if (round > 0) sw.server = engine.Serve();
    serve::NetClusServer& server = *sw.server;
    UpdateStream stream(engine, cfg.seed + 1 + 7919 * round, 256);
    for (size_t i = 0; i < kWarmupOps; ++i) ApplyUpdate(&server, &stream);

    const serve::ServerStats stats_start = server.stats();
    const int64_t start = NowNs();
    for (size_t op = 0; op < kRoundOps; ++op) {
      const UpdateStep s = ApplyUpdate(&server, &stream);
      ++issued;
      if (!s.accepted) continue;
      ++applied;
      const double ms = NsToMs(s.flushed_ns - s.start_ns);
      publish_ms.push_back(ms);
      if (!cfg.trace) continue;
      if (issued % 2 == 1) {
        const uint64_t root = spans.NextId();
        spans.Add("serve.mutate", s.start_ns, s.mutated_ns, root, issued);
        spans.Add("serve.flush", s.mutated_ns, s.flushed_ns, root, issued);
        spans.AddWithId(root, "update", s.start_ns, s.flushed_ns, 0, issued);
        traced_ms.push_back(ms);
      } else {
        plain_ms.push_back(ms);
      }
    }
    elapsed += (NowNs() - start) / 1e9;
    const serve::ServerStats stats_end = server.stats();
    batches += stats_end.updates.batches_published - stats_start.updates.batches_published;
    apply_seconds += stats_end.updates.apply_seconds - stats_start.updates.apply_seconds;
    peak_rss_mb = util::ReadVmHwmBytes() / (1024.0 * 1024.0);

    // Gate: the round's final snapshot holds what its op log says.
    server.Shutdown();
    final_snap = server.snapshot();
    const int64_t want_live = live_before + stream.traj_adds() - stream.traj_removes();
    const int64_t want_sites = sites_before + stream.site_adds();
    const auto have_live = static_cast<int64_t>(final_snap->store().live_count());
    const auto have_sites = static_cast<int64_t>(final_snap->sites().size());
    if (have_live == want_live && have_sites == want_sites) ++rounds_matched;
    char counts[160];
    std::snprintf(counts, sizeof(counts),
                  "last: live trajectories %lld (op log %lld), sites %lld (op log %lld)",
                  static_cast<long long>(have_live), static_cast<long long>(want_live),
                  static_cast<long long>(have_sites), static_cast<long long>(want_sites));
    last_counts = counts;
    free_nodes = stream.free_nodes_left();
  }
  result.attempted = issued;
  result.failed = issued - applied;
  result.AddGate("final_counts_match_op_log", rounds_matched == rounds,
                 std::to_string(rounds_matched) + "/" + std::to_string(rounds) +
                     " rounds match; " + last_counts);
  AddSnapshotUtility(*final_snap, cfg.threads,
                     UtilitySpecs(cfg.seed + 3, final_snap->sites().size()), &result);

  const double p50 = Quantile(publish_ms, 0.5);
  result.Add("peak_rss_mb", peak_rss_mb, "MB", 1, Kind::kEndToEnd);
  result.Add("ok_frac", issued ? static_cast<double>(applied) / issued : 0.0, "ratio",
             issued, Kind::kEndToEnd);
  result.Add("latency_p50_ms", p50, "ms", publish_ms.size(), Kind::kEndToEnd);
  result.Add("latency_p99_ms", Quantile(publish_ms, 0.99), "ms", publish_ms.size(),
             Kind::kEndToEnd);
  result.Add("throughput_per_s", applied / elapsed, "1/s", applied, Kind::kEndToEnd);
  result.Add("update_ops_per_s", applied / elapsed, "1/s", applied, Kind::kInfo);
  result.Add("publish_p50_ms", p50, "ms", publish_ms.size(), Kind::kInfo);
  result.Add("publish_p95_ms", Quantile(publish_ms, 0.95), "ms", publish_ms.size(),
             Kind::kInfo);
  result.Add("timed_s", elapsed, "s", 1, Kind::kInfo);
  if (!cfg.trace) return result;

  AddPublishLayers(batches, apply_seconds, publish_ms, &result);
  const double plain = Median(plain_ms);
  result.Add("bench.trace_overhead_frac",
             plain > 0.0 ? Median(traced_ms) / plain - 1.0 : 0.0, "ratio",
             traced_ms.size(), Kind::kLayer);
  AddNetclusProbes(*final_snap, free_nodes, cfg.seed + 5, &spans, &result);
  FinishTrace(cfg, spans, &result);
  return result;
}

}  // namespace perfbench
