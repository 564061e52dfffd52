// Covering sets TC / SC and site weights (Sec. 3.2).
//
// For every candidate site s, TC(s) is the set of trajectories T with
// d_r(T, s) <= τ together with the detour distance d_r(T, s); SC(T) is the
// inverse map, built from TC on the first SC() call (no query-path solver
// reads it). This is the O(mn)-sized structure whose build cost and
// memory footprint make plain Inc-Greedy non-scalable (Sec. 3.4, Table 9) —
// NetClus exists to avoid materializing it at full resolution.
//
// Construction avoids the paper's 250 GB all-pairs distance matrix: each
// site runs a τ-bounded forward + reverse Dijkstra, and the trajectory
// store's node -> trajectory inverted index turns settled nodes into
// covered trajectories.
//
// Two detour semantics (DESIGN.md):
//  * kSinglePoint: d_r(T,s) = min_{v in T} d(v,s) + d(s,v)  — the round
//    trip from one trajectory node; this is the semantics the NetClus
//    guarantees (4R bounds) are stated in.
//  * kPairwise: min over leave/rejoin pairs k <= l of
//    d(v_k,s) + d(s,v_l) - along(v_k, v_l), clamped at 0, with each leg
//    individually <= τ. Along-path baseline = the user's actual route.
#ifndef NETCLUS_TOPS_COVERAGE_H_
#define NETCLUS_TOPS_COVERAGE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/dijkstra.h"
#include "graph/road_network.h"
#include "graph/spf/distance_backend.h"
#include "store/arena.h"
#include "tops/preference.h"
#include "tops/site_set.h"
#include "traj/trajectory_store.h"
#include "util/float_bits.h"
#include "util/memory.h"

namespace netclus::tops {

enum class DetourMode {
  kSinglePoint,
  kPairwise,
};

struct CoverageConfig {
  double tau_m = 800.0;
  DetourMode detour = DetourMode::kSinglePoint;
  /// Optional analytic memory budget; when exceeded the build aborts and
  /// Build() returns an index with oom() == true (Table 9's cutoff).
  uint64_t memory_budget_bytes = 0;
  /// Worker threads for the per-site searches (0 = NETCLUS_THREADS default).
  /// Each site's covering set is computed independently, so the result is
  /// identical at any thread count. A nonzero memory budget forces the
  /// serial path: the budget cutoff is defined by sequential site order.
  uint32_t threads = 0;
  /// Shortest-path backend for the per-site searches (not owned; must
  /// outlive the build). Null = per-worker plain Dijkstra, the
  /// pre-subsystem behavior. Distances — and therefore the covering
  /// sets — are bit-identical under every backend; see src/graph/spf/.
  const graph::spf::DistanceBackend* backend = nullptr;
  /// Pack TC/SC into delta-varint arenas after the build (src/store).
  /// The sets are identical — TC()/SC() views decode lazily — but the
  /// resident footprint drops well below the raw CSR representation.
  /// Off by default: the per-query approximate covers of the NetClus
  /// path stay raw for latency; the long-lived exact baselines (Table 9)
  /// and memory-bound deployments turn it on.
  bool compress_postings = false;
};

/// One covering entry: trajectory (or site, in the inverse view) + d_r.
struct CoverEntry {
  uint32_t id;  ///< TrajId in TC, SiteId in SC
  float dr_m;
};

/// Lazy range over one covering set: a raw CSR slice or compressed arena
/// storage behind one iterator type, so the solver family (Inc-Greedy,
/// FM-greedy, Jaccard, variants) traverses either without materializing
/// vectors.
using CoverList = store::PairListView<CoverEntry>;

/// The covering order: ascending d_r, ties by ascending id. Distances are
/// compared bit for bit on ties, so the order — and everything a solver
/// derives from it — never depends on how or where a list was sorted.
inline bool CoverOrder(const CoverEntry& a, const CoverEntry& b) {
  return a.dr_m < b.dr_m || (util::BitEqual(a.dr_m, b.dr_m) && a.id < b.id);
}

/// Sorts [first, last) into CoverOrder. Equivalent to std::sort with
/// CoverOrder, only faster on the short lists covers consist of.
void SortCovers(CoverEntry* first, CoverEntry* last);

/// Build statistics, reported by the benches.
struct CoverageStats {
  double build_seconds = 0.0;
  uint64_t settled_nodes = 0;   ///< total Dijkstra-settled nodes
  uint64_t cover_entries = 0;   ///< Σ |TC(s)|
};

class CoverageIndex {
 public:
  /// Computes TC for all sites in `sites`. Trajectories marked deleted in
  /// the store are skipped.
  static CoverageIndex Build(const traj::TrajectoryStore& store,
                             const SiteSet& sites, const CoverageConfig& config);

  /// Wraps precomputed covering sets (sorted or not; unsorted lists are
  /// sorted into CoverOrder). This is how NetClus runs the unmodified
  /// solver family on cluster representatives: the approximate covers T̂C
  /// (Eq. 10) become a coverage index whose "sites" are representatives.
  /// `num_trajectories` sizes the SC inverse; `num_live` is the utility
  /// denominator. `threads` (0 = NETCLUS_THREADS default) only changes how
  /// fast the lists are sorted (here) and inverted (on the first SC() call),
  /// never the result.
  static CoverageIndex FromCovers(std::vector<std::vector<CoverEntry>> tc,
                                  size_t num_trajectories, size_t num_live,
                                  double tau_m, uint32_t threads = 0);

  /// True when the memory budget aborted the build; all queries on an OOM
  /// index are invalid.
  bool oom() const { return oom_; }

  double tau_m() const { return config_.tau_m; }
  const CoverageConfig& config() const { return config_; }
  size_t num_sites() const {
    return compressed_ ? tc_arena_.num_lists() : tc_.num_lists();
  }
  size_t num_trajectories() const { return num_trajectories_; }

  /// Live (non-deleted) trajectories in the store at build time; the
  /// denominator for utility percentages.
  size_t num_live_trajectories() const { return num_live_; }

  /// TC(s): covered trajectories sorted by ascending d_r (paper keeps the
  /// sets distance-sorted).
  CoverList TC(SiteId s) const {
    if (compressed_) return tc_arena_.PairList<CoverEntry>(s);
    return tc_.list(s);
  }

  /// SC(T): covering sites sorted by ascending d_r. The first call (from
  /// any number of threads at once) builds every SC list from TC; later
  /// calls only read them.
  CoverList SC(traj::TrajId t) const {
    const Inverse& sc = inverse();
    if (compressed_) return sc.arena.PairList<CoverEntry>(t);
    return sc.csr.list(t);
  }

  /// Builds SC if no SC() call has yet, then packs TC/SC into compressed
  /// arenas and drops the CSR arrays. Idempotent; views from TC()/SC()
  /// decode the same entries in the same order.
  void Compress();

  /// True once Compress() ran (or the build was configured to).
  bool compressed() const { return compressed_; }

  /// Site weight w_i under preference ψ: Σ_{T in TC(s)} ψ(T, s).
  double SiteWeight(SiteId s, const PreferenceFunction& psi) const;

  /// Exact d_r(T, s) for an arbitrary (trajectory, site) pair, computed on
  /// demand with bounded searches (used to evaluate solution quality
  /// without a full index). kInfDistance if above `tau_m`. `query` is any
  /// spf workspace (a plain DijkstraEngine still works).
  static double DetourDistance(const traj::TrajectoryStore& store,
                               graph::spf::DistanceQuery* query,
                               traj::TrajId t, graph::NodeId site_node,
                               double tau_m, DetourMode mode);

  /// Exact utility of a concrete site selection, evaluated from scratch
  /// with k bounded searches (cheap: used to score NetClus answers against
  /// Inc-Greedy answers without building a full CoverageIndex).
  static double EvaluateSelection(
      const traj::TrajectoryStore& store, const SiteSet& sites,
      const std::vector<SiteId>& selection, double tau_m,
      const PreferenceFunction& psi, DetourMode mode = DetourMode::kSinglePoint,
      const graph::spf::DistanceBackend* backend = nullptr);

  const CoverageStats& stats() const { return stats_; }

  /// Analytic memory footprint of TC, plus SC once it is built, bytes.
  uint64_t MemoryBytes() const;

 private:
  /// Covering sets in compressed-sparse-row form: list i is
  /// entries[offsets[i], offsets[i + 1]). One allocation per side instead
  /// of one per list.
  struct Csr {
    std::vector<uint64_t> offsets{0};
    std::vector<CoverEntry> entries;

    /// Concatenates `lists` in order, releasing each one once copied.
    static Csr Flatten(std::vector<std::vector<CoverEntry>> lists);
    size_t num_lists() const { return offsets.size() - 1; }
    CoverList list(size_t i) const {
      return CoverList::Raw(entries.data() + offsets[i],
                            offsets[i + 1] - offsets[i]);
    }
    uint64_t MemoryBytes() const {
      return util::VectorBytes(offsets) + util::VectorBytes(entries);
    }
  };

  /// SC, built once from TC. `built` is set (release) after the lists are
  /// complete, so a reader that sees it true may read them.
  struct Inverse {
    std::once_flag once;
    std::atomic<bool> built{false};
    Csr csr;                    ///< raw SC, each list in CoverOrder
    store::PostingArena arena;  ///< packed SC (when compressed_)
  };

  /// Checks every TC id against num_trajectories_ and sorts every TC list
  /// that is not yet in CoverOrder. Every list is sorted on its own, so the
  /// split of lists across `threads` never changes a list.
  void SortTc(unsigned threads);

  /// SC, built on the first call (under std::call_once).
  const Inverse& inverse() const;

  /// Fills SC from the raw TC by a two-pass counting sort (count per
  /// trajectory, then scatter) and sorts each SC list with threads_.
  Csr Transpose() const;

  CoverageConfig config_;
  // Raw TC (until Compress()) as CSR arrays, each list in CoverOrder.
  Csr tc_;
  store::PostingArena tc_arena_;  ///< packed TC (when compressed_)
  std::unique_ptr<Inverse> sc_ = std::make_unique<Inverse>();
  size_t num_trajectories_ = 0;
  unsigned threads_ = 1;  ///< threads the SC build uses
  bool compressed_ = false;
  CoverageStats stats_;
  size_t num_live_ = 0;
  bool oom_ = false;
};

}  // namespace netclus::tops

#endif  // NETCLUS_TOPS_COVERAGE_H_
