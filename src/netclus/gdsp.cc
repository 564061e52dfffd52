#include "netclus/gdsp.h"

#include <algorithm>
#include <numeric>
#include <queue>

#include "graph/dijkstra.h"
#include "sketch/fm_sketch.h"
#include "util/logging.h"
#include "util/timer.h"

namespace netclus::index {

namespace {

using graph::NodeId;

constexpr uint32_t kUnassigned = std::numeric_limits<uint32_t>::max();

// Dominating sets Λ(v) with round-trip distances, for all v. The dominance
// relation is symmetric, but both directions are materialized for O(1)
// residual updates.
struct DominationLists {
  // CSR layout: lambda[offsets[v] .. offsets[v+1]) are (node, rt) pairs.
  std::vector<uint64_t> offsets;
  std::vector<NodeId> nodes;
  std::vector<float> rt;
};

DominationLists BuildDomination(const graph::RoadNetwork& net, double radius_m,
                                const graph::spf::DistanceBackend* backend,
                                uint64_t* total_edges) {
  const size_t n = net.num_nodes();
  const std::unique_ptr<graph::spf::DistanceQuery> query =
      graph::spf::MakeQueryOrDijkstra(backend, &net);
  DominationLists out;
  out.offsets.assign(n + 1, 0);
  std::vector<std::vector<std::pair<NodeId, float>>> lists(n);
  uint64_t total = 0;
  for (NodeId v = 0; v < n; ++v) {
    const std::vector<graph::RoundTrip> rts =
        query->BoundedRoundTrip(v, 2.0 * radius_m);
    auto& list = lists[v];
    list.reserve(rts.size());
    for (const graph::RoundTrip& r : rts) {
      list.emplace_back(r.node, static_cast<float>(r.total()));
    }
    total += list.size();
  }
  out.nodes.resize(total);
  out.rt.resize(total);
  uint64_t pos = 0;
  for (NodeId v = 0; v < n; ++v) {
    out.offsets[v] = pos;
    for (const auto& [node, rt] : lists[v]) {
      out.nodes[pos] = node;
      out.rt[pos] = rt;
      ++pos;
    }
  }
  out.offsets[n] = pos;
  *total_edges = total;
  return out;
}

// Assigns the not-yet-clustered members of Λ(center) to a new cluster;
// returns how many nodes were newly assigned.
size_t FormCluster(const DominationLists& dom, NodeId center,
                   uint32_t cluster_id, GdspResult* result) {
  size_t newly = 0;
  for (uint64_t i = dom.offsets[center]; i < dom.offsets[center + 1]; ++i) {
    const NodeId u = dom.nodes[i];
    if (result->assignment[u] == kUnassigned) {
      result->assignment[u] = cluster_id;
      result->rt_to_center[u] = dom.rt[i];
      ++newly;
    }
  }
  // The center always dominates itself (round trip 0); BoundedRoundTrip
  // includes it, but keep the invariant explicit.
  if (result->assignment[center] != cluster_id) {
    result->assignment[center] = cluster_id;
    result->rt_to_center[center] = 0.0f;
    ++newly;
  }
  return newly;
}

GdspResult RunLazyExact(const graph::RoadNetwork& net,
                        const DominationLists& dom) {
  const size_t n = net.num_nodes();
  GdspResult result;
  result.assignment.assign(n, kUnassigned);
  result.rt_to_center.assign(n, 0.0f);

  // Lazy greedy: heap keyed by stale residual counts (valid upper bounds).
  using Entry = std::pair<uint32_t, NodeId>;  // (residual count, node)
  std::priority_queue<Entry> heap;
  for (NodeId v = 0; v < n; ++v) {
    heap.push({static_cast<uint32_t>(dom.offsets[v + 1] - dom.offsets[v]), v});
  }
  auto residual = [&](NodeId v) {
    uint32_t count = 0;
    for (uint64_t i = dom.offsets[v]; i < dom.offsets[v + 1]; ++i) {
      if (result.assignment[dom.nodes[i]] == kUnassigned) ++count;
    }
    return count;
  };

  size_t assigned = 0;
  while (assigned < n && !heap.empty()) {
    const auto [stale_count, v] = heap.top();
    heap.pop();
    if (result.assignment[v] != kUnassigned) continue;  // no longer a candidate
    const uint32_t fresh = residual(v);
    // Lazy re-evaluation (Minoux): stale keys are upper bounds because
    // residual counts only shrink; if the fresh count still beats the next
    // stale bound, v is the exact argmax.
    if (!heap.empty() && fresh < heap.top().first) {
      heap.push({fresh, v});
      continue;
    }
    const uint32_t cluster_id = static_cast<uint32_t>(result.centers.size());
    result.centers.push_back(v);
    const size_t newly = FormCluster(dom, v, cluster_id, &result);
    NC_CHECK_GT(newly, 0u);
    assigned += newly;
  }
  NC_CHECK_EQ(assigned, n);
  return result;
}

GdspResult RunFmSketch(const graph::RoadNetwork& net,
                       const DominationLists& dom, const GdspConfig& config) {
  const size_t n = net.num_nodes();
  GdspResult result;
  result.assignment.assign(n, kUnassigned);
  result.rt_to_center.assign(n, 0.0f);

  // Sketch of Λ(v) per node; base sketch accumulates clustered nodes.
  // Copies of one empty sketch share its per-copy salts.
  std::vector<sketch::FmSketch> sketches(
      n, sketch::FmSketch(config.fm_copies, config.fm_seed));
  for (NodeId v = 0; v < n; ++v) {
    for (uint64_t i = dom.offsets[v]; i < dom.offsets[v + 1]; ++i) {
      sketches[v].Add(dom.nodes[i]);
    }
  }
  std::vector<double> standalone(n);
  for (NodeId v = 0; v < n; ++v) standalone[v] = sketches[v].Estimate();
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return standalone[a] > standalone[b] || (standalone[a] == standalone[b] && a < b);
  });

  sketch::FmSketch base(config.fm_copies, config.fm_seed);
  double base_estimate = 0.0;
  size_t assigned = 0;
  while (assigned < n) {
    // Scan in descending standalone order with early termination.
    NodeId best = graph::kInvalidNode;
    double best_marginal = -1.0;
    for (NodeId v : order) {
      if (result.assignment[v] != kUnassigned) continue;
      if (best != graph::kInvalidNode && standalone[v] <= best_marginal) break;
      const double marginal = base.UnionEstimate(sketches[v]) - base_estimate;
      if (marginal > best_marginal) {
        best_marginal = marginal;
        best = v;
      }
    }
    if (best == graph::kInvalidNode) {
      // Estimation left some nodes uncovered: sweep them into singleton
      // clusters deterministically.
      for (NodeId v = 0; v < n; ++v) {
        if (result.assignment[v] == kUnassigned) {
          const uint32_t cluster_id = static_cast<uint32_t>(result.centers.size());
          result.centers.push_back(v);
          assigned += FormCluster(dom, v, cluster_id, &result);
        }
      }
      break;
    }
    const uint32_t cluster_id = static_cast<uint32_t>(result.centers.size());
    result.centers.push_back(best);
    assigned += FormCluster(dom, best, cluster_id, &result);
    base.Merge(sketches[best]);
    base_estimate = base.Estimate();
  }
  return result;
}

}  // namespace

GdspResult GreedyGdsp(const graph::RoadNetwork& net, const GdspConfig& config,
                      const graph::spf::DistanceBackend* backend) {
  NC_CHECK_GT(config.radius_m, 0.0);
  util::WallTimer timer;
  uint64_t total_edges = 0;
  const DominationLists dom =
      BuildDomination(net, config.radius_m, backend, &total_edges);

  GdspResult result = config.strategy == GdspStrategy::kLazyExact
                          ? RunLazyExact(net, dom)
                          : RunFmSketch(net, dom, config);
  result.build_seconds = timer.Seconds();
  result.dominance_edges = total_edges;
  result.mean_dominating_set_size =
      net.num_nodes() == 0
          ? 0.0
          : static_cast<double>(total_edges) / static_cast<double>(net.num_nodes());
  // Post-conditions: total assignment, centers map to themselves.
  for (uint32_t a : result.assignment) NC_CHECK_NE(a, kUnassigned);
  return result;
}

}  // namespace netclus::index
