// Pieces shared by the two workloads that drive a NetClusServer
// (serve-churn and ingest): server set-up, the update-op loop step, the
// netclus layer probes, and the final-snapshot checks.
#ifndef NETCLUS_PERFBENCH_SERVING_H_
#define NETCLUS_PERFBENCH_SERVING_H_

#include <memory>
#include <vector>

#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

/// A built engine (70% of nodes as sites) and the server it serves from.
struct ServingWorld {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<serve::NetClusServer> server;
};

/// Builds the serving world kSetupRepeats times (keeping the last) and
/// records setup_s and netclus.build_s.
ServingWorld SetUpServing(const RunConfig& cfg, Result* result);

/// One update op of the stream, sent as Mutate followed by Flush. Times
/// are steady-clock ns; publish = flushed - start.
struct UpdateStep {
  int64_t start_ns = 0;
  int64_t mutated_ns = 0;
  int64_t flushed_ns = 0;
  bool accepted = false;
};
UpdateStep ApplyUpdate(serve::NetClusServer* server, UpdateStream* stream);

/// Per-layer publish metrics: `batches` publishes that took
/// `apply_seconds` of server apply time, against the publish latencies
/// the caller measured (Mutate -> Flush, ms).
void AddPublishLayers(uint64_t batches, double apply_seconds,
                      const std::vector<double>& publish_ms, Result* result);

/// Per-layer serve and util metrics of the timed phase: ServerStats
/// deltas (end - start) with their base counts, and AddPublishLayers.
void AddServerLayers(const serve::ServerStats& start,
                     const serve::ServerStats& end, uint64_t requests,
                     const std::vector<double>& publish_ms, Result* result);

/// netclus probes on the final snapshot's index: MultiIndex::Clone, then
/// the Sec. 6 update calls (AddTrajectory, RemoveTrajectory, AddSite)
/// applied to the clone, each timed.
void AddNetclusProbes(const serve::IndexSnapshot& snap,
                      const std::vector<graph::NodeId>& free_nodes,
                      uint64_t seed, SpanRecorder* spans, Result* result);

/// Utility of NetClus answers on `snap` (its incrementally updated index)
/// against Inc-Greedy on the same corpus and sites; adds utility_ratio
/// and its gate.
void AddSnapshotUtility(const serve::IndexSnapshot& snap, uint32_t threads,
                        const std::vector<Engine::QuerySpec>& specs,
                        Result* result);

/// Exact-comparable specs drawn from `seed`, for the utility check.
std::vector<Engine::QuerySpec> UtilitySpecs(uint64_t seed, size_t num_sites);

/// The replay of one spec on one snapshot through the planner and
/// executor, as the server answers it (canonical spec, one thread).
index::QueryResult Replay(const serve::IndexSnapshot& snap,
                          const Engine::QuerySpec& spec);

}  // namespace perfbench

#endif  // NETCLUS_PERFBENCH_SERVING_H_
