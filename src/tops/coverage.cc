#include "tops/coverage.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "util/float_bits.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace netclus::tops {

namespace {

using graph::NodeId;
using traj::TrajId;

// CoverEntry {id, dr_m} read as one little-endian word: dr bits above id.
// For distances that are neither negative nor NaN — every detour distance
// — the float bits order like the values, so comparing these words is
// CoverOrder, ties by id included.
uint64_t PackedKey(const CoverEntry& e) {
  uint64_t key;
  std::memcpy(&key, &e, sizeof(key));
  return key;
}
static_assert(sizeof(CoverEntry) == sizeof(uint64_t) &&
                  offsetof(CoverEntry, dr_m) == sizeof(uint32_t) &&
                  std::endian::native == std::endian::little,
              "PackedKey needs the {id, dr_m} little-endian layout");

// Lists up to this length are insertion-sorted.
constexpr ptrdiff_t kInsertionSortMax = 48;

// Distance rounds of the TC -> SC scatter (see Transpose).
constexpr uint32_t kScatterRounds = 32;

// Per-site scratch that maps TrajId -> best detour found so far, using a
// stamped array so that clearing between sites is O(1).
class MinDetourScratch {
 public:
  explicit MinDetourScratch(size_t num_trajs)
      : best_(num_trajs, 0.0f), stamp_(num_trajs, 0) {}

  void NewSite() {
    ++epoch_;
    touched_.clear();
  }

  void Offer(TrajId t, float dr) {
    if (stamp_[t] != epoch_) {
      stamp_[t] = epoch_;
      best_[t] = dr;
      touched_.push_back(t);
    } else if (dr < best_[t]) {
      best_[t] = dr;
    }
  }

  const std::vector<TrajId>& touched() const { return touched_; }
  float best(TrajId t) const { return best_[t]; }

 private:
  std::vector<float> best_;
  std::vector<uint32_t> stamp_;
  std::vector<TrajId> touched_;
  uint32_t epoch_ = 0;
};

// Pairwise detour per trajectory for one site: collects (pos, rev, fwd) leg
// distances and sweeps positions in order, maintaining
// min_{k <= l} (rev(v_k) + prefix[k]) to add to (fwd(v_l) - prefix[l]).
struct PairwiseLegs {
  // Sparse per-position legs; kInf when the leg is out of range.
  std::vector<std::pair<uint32_t, float>> rev_legs;  // (pos, d(v,s))
  std::vector<std::pair<uint32_t, float>> fwd_legs;  // (pos, d(s,v))
};

// Per-worker scratch for the site loop: every site's covering set is
// computed with private state, so sites can be processed in any order (and
// concurrently) with identical results. The search workspace comes from
// the configured backend (plain Dijkstra when there is none).
struct SiteScratch {
  SiteScratch(const graph::spf::DistanceBackend* backend,
              const graph::RoadNetwork* net, size_t num_trajs)
      : query(graph::spf::MakeQueryOrDijkstra(backend, net)),
        detour(num_trajs) {}
  std::unique_ptr<graph::spf::DistanceQuery> query;
  MinDetourScratch detour;
  std::unordered_map<TrajId, PairwiseLegs> legs;
};

// Computes TC(s) into `tc` (in CoverOrder) and returns the number of
// Dijkstra-settled nodes.
uint64_t ComputeSiteCover(const traj::TrajectoryStore& store,
                          const SiteSet& sites, const CoverageConfig& config,
                          SiteScratch& scratch, SiteId s,
                          std::vector<CoverEntry>& tc) {
  const NodeId site_node = sites.node(s);
  uint64_t settled = 0;
  scratch.detour.NewSite();

  if (config.detour == DetourMode::kSinglePoint) {
    const std::vector<graph::RoundTrip> rts =
        scratch.query->BoundedRoundTrip(site_node, config.tau_m);
    settled += scratch.query->last_settled_count();
    for (const graph::RoundTrip& rt : rts) {
      for (const traj::Posting& posting : store.postings(rt.node)) {
        if (!store.is_alive(posting.traj)) continue;
        scratch.detour.Offer(posting.traj, static_cast<float>(rt.total()));
      }
    }
  } else {
    // Pairwise: both legs must individually fit in τ.
    scratch.legs.clear();
    const std::vector<graph::Settled> fwd = scratch.query->BoundedSearch(
        site_node, config.tau_m, graph::Direction::kForward);
    settled += scratch.query->last_settled_count();
    const std::vector<graph::Settled> rev = scratch.query->BoundedSearch(
        site_node, config.tau_m, graph::Direction::kReverse);
    settled += scratch.query->last_settled_count();
    for (const graph::Settled& st : rev) {
      // rev search distance = d(node, site): the "leave" leg.
      for (const traj::Posting& p : store.postings(st.node)) {
        if (!store.is_alive(p.traj)) continue;
        scratch.legs[p.traj].rev_legs.emplace_back(p.pos,
                                                   static_cast<float>(st.distance));
      }
    }
    for (const graph::Settled& st : fwd) {
      // fwd search distance = d(site, node): the "rejoin" leg.
      for (const traj::Posting& p : store.postings(st.node)) {
        if (!store.is_alive(p.traj)) continue;
        scratch.legs[p.traj].fwd_legs.emplace_back(p.pos,
                                                   static_cast<float>(st.distance));
      }
    }
    for (auto& [t, l] : scratch.legs) {
      const traj::Trajectory& trajectory = store.trajectory(t);
      std::sort(l.rev_legs.begin(), l.rev_legs.end());
      std::sort(l.fwd_legs.begin(), l.fwd_legs.end());
      // Sweep rejoin positions in order, keeping the best leave <= rejoin.
      double best = graph::kInfDistance;
      size_t ri = 0;
      double best_leave = graph::kInfDistance;  // min rev + prefix
      for (const auto& [pos, fwd_d] : l.fwd_legs) {
        while (ri < l.rev_legs.size() && l.rev_legs[ri].first <= pos) {
          const double leave =
              l.rev_legs[ri].second + trajectory.prefix(l.rev_legs[ri].first);
          best_leave = std::min(best_leave, leave);
          ++ri;
        }
        if (best_leave == graph::kInfDistance) continue;
        const double detour = best_leave + fwd_d - trajectory.prefix(pos);
        best = std::min(best, detour);
      }
      if (best != graph::kInfDistance) {
        scratch.detour.Offer(t, static_cast<float>(std::max(0.0, best)));
      }
    }
  }

  tc.clear();
  tc.reserve(scratch.detour.touched().size());
  for (TrajId t : scratch.detour.touched()) {
    const float dr = scratch.detour.best(t);
    if (dr <= config.tau_m) tc.push_back({t, dr});
  }
  SortCovers(tc.data(), tc.data() + tc.size());
  return settled;
}

}  // namespace

void SortCovers(CoverEntry* first, CoverEntry* last) {
  uint32_t max_bits = 0;
  for (const CoverEntry* e = first; e != last; ++e) {
    max_bits = std::max(max_bits, util::FloatBits(e->dr_m));
  }
  // Negative (sign bit set) or NaN distances: the word order would differ.
  if (max_bits > util::FloatBits(std::numeric_limits<float>::infinity())) {
    std::sort(first, last, CoverOrder);
    return;
  }
  const auto by_key = [](const CoverEntry& a, const CoverEntry& b) {
    return PackedKey(a) < PackedKey(b);
  };
  if (last - first > kInsertionSortMax) {
    std::sort(first, last, by_key);
    return;
  }
  if (last - first < 2) return;
  for (CoverEntry* p = first + 1; p < last; ++p) {
    const CoverEntry value = *p;
    const uint64_t key = PackedKey(value);
    CoverEntry* q = p;
    for (; q != first && PackedKey(q[-1]) > key; --q) *q = q[-1];
    *q = value;
  }
}

CoverageIndex CoverageIndex::Build(const traj::TrajectoryStore& store,
                                   const SiteSet& sites,
                                   const CoverageConfig& config) {
  CoverageIndex index;
  index.config_ = config;
  index.num_live_ = store.live_count();
  util::WallTimer timer;
  util::MemoryBudget budget(config.memory_budget_bytes);

  const graph::RoadNetwork& net = store.network();
  const size_t num_trajs = store.total_count();

  // The memory-budget cutoff is defined by sequential site order, so a
  // nonzero budget forces the serial path (Table 9's OOM semantics).
  const unsigned threads =
      config.memory_budget_bytes > 0 ? 1 : util::ResolveThreads(config.threads);

  std::vector<std::vector<CoverEntry>> tc(sites.size());
  if (threads <= 1) {
    SiteScratch scratch(config.backend, &net, num_trajs);
    for (SiteId s = 0; s < sites.size(); ++s) {
      index.stats_.settled_nodes +=
          ComputeSiteCover(store, sites, config, scratch, s, tc[s]);
      index.stats_.cover_entries += tc[s].size();
      if (!budget.Charge(tc[s].size() * sizeof(CoverEntry) * 2 + 64)) {
        index.oom_ = true;
        index.stats_.build_seconds = timer.Seconds();
        NC_LOG_WARNING << "CoverageIndex: memory budget ("
                       << util::HumanBytes(budget.limit_bytes())
                       << ") exceeded at site " << s << "/" << sites.size();
        return index;
      }
    }
  } else {
    std::atomic<uint64_t> settled{0};
    // Coarse chunks: each carries its own Dijkstra engine + scratch (O(nodes)
    // to set up), so ~4 chunks per thread amortizes that without skew — and
    // a single chunk when this call would execute inline anyway.
    const size_t grain = util::CoarseGrain(threads, sites.size());
    util::ParallelFor(
        threads, sites.size(),
        [&](size_t begin, size_t end) {
          SiteScratch scratch(config.backend, &net, num_trajs);
          uint64_t local_settled = 0;
          for (size_t s = begin; s < end; ++s) {
            local_settled += ComputeSiteCover(store, sites, config, scratch,
                                              static_cast<SiteId>(s), tc[s]);
          }
          settled.fetch_add(local_settled, std::memory_order_relaxed);
        },
        grain);
    index.stats_.settled_nodes = settled.load();
    for (const auto& cover : tc) index.stats_.cover_entries += cover.size();
  }

  index.tc_ = Csr::Flatten(std::move(tc));
  index.Transpose(num_trajs, threads);
  if (config.compress_postings) index.Compress();
  index.stats_.build_seconds = timer.Seconds();
  return index;
}

void CoverageIndex::Transpose(size_t num_trajectories, unsigned threads) {
  const size_t num_sites = tc_.num_lists();
  // Pass 1: SC list lengths (prefix-summed into offsets below), the
  // largest distance, and the TC lists not yet in CoverOrder.
  sc_.offsets.assign(num_trajectories + 1, 0);
  float max_dr = 0.0f;
  std::vector<SiteId> unsorted;
  for (SiteId s = 0; s < num_sites; ++s) {
    bool sorted = true;
    for (uint64_t k = tc_.offsets[s]; k < tc_.offsets[s + 1]; ++k) {
      const CoverEntry& e = tc_.entries[k];
      NC_CHECK_LT(e.id, num_trajectories);
      ++sc_.offsets[e.id + 1];
      max_dr = std::max(max_dr, e.dr_m);
      if (k > tc_.offsets[s] && CoverOrder(e, tc_.entries[k - 1])) sorted = false;
    }
    if (!sorted) unsorted.push_back(s);
  }
  util::ParallelFor(threads, unsorted.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const SiteId s = unsorted[i];
      SortCovers(tc_.entries.data() + tc_.offsets[s],
                 tc_.entries.data() + tc_.offsets[s + 1]);
    }
  });
  for (size_t t = 0; t < num_trajectories; ++t) {
    sc_.offsets[t + 1] += sc_.offsets[t];
  }
  // Pass 2: scatter in kScatterRounds rounds of rising distance. Round r
  // moves, from each TC list in site order, the entries up to
  // (r + 1) / kScatterRounds of max_dr; the TC lists are sorted, so every
  // round resumes where the last stopped, and the last round takes the
  // rest. Each SC list then arrives nearly in CoverOrder, which makes its
  // sort below cheap. The final order comes from that sort alone.
  sc_.entries.resize(tc_.entries.size());
  std::vector<uint64_t> cursor(sc_.offsets.begin(), sc_.offsets.end() - 1);
  std::vector<uint64_t> next(tc_.offsets.begin(), tc_.offsets.end() - 1);
  for (uint32_t round = 0; round < kScatterRounds; ++round) {
    const float bound =
        round + 1 == kScatterRounds
            ? std::numeric_limits<float>::infinity()
            : max_dr * static_cast<float>(round + 1) / kScatterRounds;
    for (SiteId s = 0; s < num_sites; ++s) {
      const uint64_t end = tc_.offsets[s + 1];
      uint64_t k = next[s];
      for (; k < end && !(tc_.entries[k].dr_m > bound); ++k) {
        const CoverEntry& e = tc_.entries[k];
        sc_.entries[cursor[e.id]++] = {s, e.dr_m};
      }
      next[s] = k;
    }
  }
  util::ParallelFor(threads, num_trajectories, [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      SortCovers(sc_.entries.data() + sc_.offsets[t],
                 sc_.entries.data() + sc_.offsets[t + 1]);
    }
  });
}

void CoverageIndex::Compress() {
  if (compressed_) return;
  const auto pack = [](const Csr& csr) {
    store::PostingArenaBuilder builder;
    for (size_t i = 0; i < csr.num_lists(); ++i) {
      builder.AddPairList(csr.entries.data() + csr.offsets[i],
                          csr.offsets[i + 1] - csr.offsets[i]);
    }
    return builder.Finish();
  };
  tc_arena_ = pack(tc_);
  sc_arena_ = pack(sc_);
  tc_ = Csr();
  sc_ = Csr();
  compressed_ = true;
}

CoverageIndex::Csr CoverageIndex::Csr::Flatten(
    std::vector<std::vector<CoverEntry>> lists) {
  Csr csr;
  uint64_t total = 0;
  for (const auto& list : lists) total += list.size();
  csr.offsets.reserve(lists.size() + 1);
  csr.entries.reserve(total);
  for (auto& list : lists) {
    csr.entries.insert(csr.entries.end(), list.begin(), list.end());
    csr.offsets.push_back(csr.entries.size());
    std::vector<CoverEntry>().swap(list);
  }
  return csr;
}

CoverageIndex CoverageIndex::FromCovers(
    std::vector<std::vector<CoverEntry>> tc, size_t num_trajectories,
    size_t num_live, double tau_m, uint32_t threads) {
  CoverageIndex index;
  index.config_.tau_m = tau_m;
  index.num_live_ = num_live;
  index.tc_ = Csr::Flatten(std::move(tc));
  index.stats_.cover_entries = index.tc_.entries.size();
  index.Transpose(num_trajectories, util::ResolveThreads(threads));
  return index;
}

double CoverageIndex::SiteWeight(SiteId s, const PreferenceFunction& psi) const {
  double w = 0.0;
  TC(s).ForEach(
      [&](const CoverEntry& e) { w += psi.Score(e.dr_m, config_.tau_m); });
  return w;
}

double CoverageIndex::DetourDistance(const traj::TrajectoryStore& store,
                                     graph::spf::DistanceQuery* query,
                                     traj::TrajId t, graph::NodeId site_node,
                                     double tau_m, DetourMode mode) {
  const traj::Trajectory& trajectory = store.trajectory(t);
  if (mode == DetourMode::kSinglePoint) {
    // d(v, s) for all trajectory nodes via one reverse bounded search, then
    // d(s, v) via one forward bounded search; combine per node.
    const std::vector<graph::Settled> rev =
        query->BoundedSearch(site_node, tau_m, graph::Direction::kReverse);
    std::unordered_map<NodeId, double> to_site;
    for (const graph::Settled& st : rev) to_site[st.node] = st.distance;
    const std::vector<graph::Settled> fwd =
        query->BoundedSearch(site_node, tau_m, graph::Direction::kForward);
    std::unordered_map<NodeId, double> from_site;
    for (const graph::Settled& st : fwd) from_site[st.node] = st.distance;
    double best = graph::kInfDistance;
    for (size_t i = 0; i < trajectory.size(); ++i) {
      const NodeId v = trajectory.node(i);
      auto it1 = to_site.find(v);
      auto it2 = from_site.find(v);
      if (it1 == to_site.end() || it2 == from_site.end()) continue;
      best = std::min(best, it1->second + it2->second);
    }
    return best <= tau_m ? best : graph::kInfDistance;
  }
  // Pairwise mode.
  const std::vector<graph::Settled> rev =
      query->BoundedSearch(site_node, tau_m, graph::Direction::kReverse);
  std::unordered_map<NodeId, double> to_site;
  for (const graph::Settled& st : rev) to_site[st.node] = st.distance;
  const std::vector<graph::Settled> fwd =
      query->BoundedSearch(site_node, tau_m, graph::Direction::kForward);
  std::unordered_map<NodeId, double> from_site;
  for (const graph::Settled& st : fwd) from_site[st.node] = st.distance;
  double best = graph::kInfDistance;
  double best_leave = graph::kInfDistance;
  for (size_t i = 0; i < trajectory.size(); ++i) {
    const NodeId v = trajectory.node(i);
    auto leave_it = to_site.find(v);
    if (leave_it != to_site.end()) {
      best_leave = std::min(best_leave, leave_it->second + trajectory.prefix(i));
    }
    auto rejoin_it = from_site.find(v);
    if (rejoin_it != from_site.end() && best_leave != graph::kInfDistance) {
      best = std::min(best,
                      std::max(0.0, best_leave + rejoin_it->second -
                                        trajectory.prefix(i)));
    }
  }
  return best <= tau_m ? best : graph::kInfDistance;
}

double CoverageIndex::EvaluateSelection(const traj::TrajectoryStore& store,
                                        const SiteSet& sites,
                                        const std::vector<SiteId>& selection,
                                        double tau_m,
                                        const PreferenceFunction& psi,
                                        DetourMode mode,
                                        const graph::spf::DistanceBackend* backend) {
  const graph::RoadNetwork& net = store.network();
  const std::unique_ptr<graph::spf::DistanceQuery> query =
      graph::spf::MakeQueryOrDijkstra(backend, &net);
  // Per-trajectory best score across the selected sites; reuse the covering
  // inversion: bounded searches from each selected site only.
  std::vector<double> best_score(store.total_count(), 0.0);
  for (SiteId s : selection) {
    const NodeId site_node = sites.node(s);
    if (mode == DetourMode::kSinglePoint) {
      const std::vector<graph::RoundTrip> rts =
          query->BoundedRoundTrip(site_node, tau_m);
      // Min detour per trajectory for this site.
      std::unordered_map<TrajId, double> best_dr;
      for (const graph::RoundTrip& rt : rts) {
        for (const traj::Posting& p : store.postings(rt.node)) {
          if (!store.is_alive(p.traj)) continue;
          auto [it, inserted] = best_dr.emplace(p.traj, rt.total());
          if (!inserted && rt.total() < it->second) it->second = rt.total();
        }
      }
      for (const auto& [t, dr] : best_dr) {
        best_score[t] = std::max(best_score[t], psi.Score(dr, tau_m));
      }
    } else {
      // Pairwise: reuse DetourDistance per touched trajectory.
      const std::vector<graph::Settled> probe =
          query->BoundedSearch(site_node, tau_m, graph::Direction::kReverse);
      std::vector<TrajId> touched;
      for (const graph::Settled& st : probe) {
        for (const traj::Posting& p : store.postings(st.node)) {
          if (store.is_alive(p.traj)) touched.push_back(p.traj);
        }
      }
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
      for (TrajId t : touched) {
        const double dr =
            DetourDistance(store, query.get(), t, site_node, tau_m, mode);
        if (dr != graph::kInfDistance) {
          best_score[t] = std::max(best_score[t], psi.Score(dr, tau_m));
        }
      }
    }
  }
  double total = 0.0;
  for (TrajId t = 0; t < store.total_count(); ++t) {
    if (store.is_alive(t)) total += best_score[t];
  }
  return total;
}

uint64_t CoverageIndex::MemoryBytes() const {
  if (compressed_) return tc_arena_.bytes() + sc_arena_.bytes();
  return tc_.MemoryBytes() + sc_.MemoryBytes();
}

}  // namespace netclus::tops
