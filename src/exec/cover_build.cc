#include "exec/cover_build.h"

#include <algorithm>
#include <utility>

#include "netclus/cluster_index.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace netclus::exec {

namespace {

using index::ClEntry;
using index::Cluster;
using index::ClusterIndex;
using index::TlEntry;
using tops::CoverEntry;
using tops::SiteId;
using traj::TrajId;

// Per-trajectory best estimate for one representative at a time, stamped so
// that starting the next representative is O(1). One instance per thread,
// kept across queries and grown on demand, so a cover build allocates no
// O(num_trajs) arrays however many chunks it is cut into.
struct TraverseScratch {
  std::vector<float> best;
  std::vector<uint32_t> stamp;
  std::vector<TrajId> touched;
  uint32_t epoch = 0;

  void NewRepresentative(size_t num_trajs) {
    if (stamp.size() < num_trajs) {
      best.resize(num_trajs, 0.0f);
      stamp.resize(num_trajs, 0);
    }
    if (++epoch == 0) {  // wrapped: no stale stamp may match again
      std::fill(stamp.begin(), stamp.end(), 0u);
      epoch = 1;
    }
    touched.clear();
  }
};

}  // namespace

BuiltCover BuildCover(const index::MultiIndex& index,
                      const traj::TrajectoryStore& store, double tau_m,
                      size_t instance_id, uint32_t threads) {
  util::WallTimer timer;
  const ClusterIndex& instance = index.instance(instance_id);

  // Representatives entering the clustered problem.
  std::vector<uint32_t> rep_cluster;  // clustered-space id -> cluster
  BuiltCover out;
  for (uint32_t g = 0; g < instance.num_clusters(); ++g) {
    const Cluster& cluster = instance.cluster(g);
    if (cluster.representative == tops::kInvalidSite) continue;
    rep_cluster.push_back(g);
    out.rep_sites.push_back(cluster.representative);
  }

  // T̂C per representative, chunked over representatives and sorted into
  // CoverOrder by the worker that built it. Every representative's cover
  // depends only on the immutable index, and the scratch is reset per
  // representative, so any chunk layout and thread count produce the same
  // covers. Clusters differ widely in size, so ~8 chunks per thread keep
  // the workers evenly loaded; the scratch is per thread, not per chunk,
  // so the extra chunks cost no allocations.
  const size_t num_trajs = store.total_count();
  const unsigned t = util::ResolveThreads(threads);
  const size_t grain =
      util::CoarseGrain(t, rep_cluster.size(), /*chunks_per_thread=*/8);

  std::vector<std::vector<CoverEntry>> covers(rep_cluster.size());
  util::ParallelFor(
      t, rep_cluster.size(),
      [&](size_t chunk_begin, size_t chunk_end) {
        thread_local TraverseScratch scratch;
        for (size_t r = chunk_begin; r < chunk_end; ++r) {
          const uint32_t gi = rep_cluster[r];
          const Cluster& home = instance.cluster(gi);
          scratch.NewRepresentative(num_trajs);
          const uint32_t epoch = scratch.epoch;
          float* best = scratch.best.data();
          uint32_t* stamp = scratch.stamp.data();

          auto offer = [&](const TlEntry& e, float base) {
            const float est = e.dr_m + base;
            if (est > tau_m) return;
            if (stamp[e.traj] != epoch) {
              stamp[e.traj] = epoch;
              best[e.traj] = est;
              scratch.touched.push_back(e.traj);
            } else if (est < best[e.traj]) {
              best[e.traj] = est;
            }
          };

          // Home cluster: d̂_r = d_r(T, c_i) + d_r(c_i, r_i).
          home.tl.ForEach([&](const TlEntry& e) {
            if (store.is_alive(e.traj)) offer(e, home.rep_rt_m);
          });
          // Neighbor clusters:
          // d̂_r = d_r(T, c_j) + d_r(c_j, c_i) + d_r(c_i, r_i).
          for (const ClEntry& nb : home.cl) {
            const float base = nb.dr_m + home.rep_rt_m;
            if (base > tau_m) break;  // CL is distance-sorted: rest are worse
            instance.cluster(nb.cluster).tl.ForEach([&](const TlEntry& e) {
              if (store.is_alive(e.traj)) offer(e, base);
            });
          }

          auto& cover = covers[r];
          cover.reserve(scratch.touched.size());
          for (TrajId traj : scratch.touched) cover.push_back({traj, best[traj]});
          tops::SortCovers(cover.data(), cover.data() + cover.size());
        }
      },
      grain);
  out.traverse_seconds = timer.Seconds();
  out.approx = tops::CoverageIndex::FromCovers(std::move(covers), num_trajs,
                                               store.live_count(), tau_m, t);
  out.build_seconds = timer.Seconds();
  out.transpose_seconds = out.build_seconds - out.traverse_seconds;
  out.bytes =
      out.approx.MemoryBytes() + out.rep_sites.size() * sizeof(SiteId);
  return out;
}

}  // namespace netclus::exec
