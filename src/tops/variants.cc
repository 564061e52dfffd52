#include "tops/variants.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <utility>

#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace netclus::tops {

namespace {

size_t CapOf(double capacity) {
  return static_cast<size_t>(std::max(0.0, std::floor(capacity)));
}

// Sum of the `cap` largest values of *gains (all of them when there are no
// more than `cap`); reorders *gains.
double CappedSum(std::vector<double>* gains, size_t cap) {
  double sum = 0.0;
  if (gains->size() <= cap) {
    for (double g : *gains) sum += g;
  } else {
    std::nth_element(gains->begin(), gains->begin() + cap, gains->end(),
                     std::greater<>());
    for (size_t i = 0; i < cap; ++i) sum += (*gains)[i];
  }
  return sum;
}

// The greedy state every variant shares: ψ(d_r, τ) of each TC entry, scored
// once per solve, and the per-trajectory utilities U_j. The scores of TC(s)
// are scores_[offsets_[s], offsets_[s + 1]) in TC order; rounds walk TC(s)'s
// ids alongside that slice. Each score is the PreferenceFunction::Score call
// a round would make and every sum runs in TC order, so marginals are
// bit-identical to re-scoring in every round.
class ScoredCover {
 public:
  ScoredCover(const CoverageIndex& coverage, const PreferenceFunction& psi,
              unsigned threads)
      : coverage_(coverage),
        offsets_(coverage.num_sites() + 1, 0),
        utility_(coverage.num_trajectories(), 0.0) {
    const size_t n = coverage.num_sites();
    for (SiteId s = 0; s < n; ++s) {
      offsets_[s + 1] = offsets_[s] + coverage.TC(s).size();
    }
    scores_.resize(offsets_[n]);
    const double tau = coverage.tau_m();
    util::ParallelFor(
        threads, n,
        [&](size_t begin, size_t end) {
          for (size_t s = begin; s < end; ++s) {
            double* out = scores_.data() + offsets_[s];
            for (const CoverEntry& e : coverage.TC(static_cast<SiteId>(s))) {
              *out++ = psi.Score(e.dr_m, tau);
            }
          }
        },
        util::CoarseGrain(threads, n, 8));
  }

  /// Σ ψ over TC(s): the site weight w_s, as CoverageIndex::SiteWeight sums it.
  double Weight(SiteId s) const {
    double w = 0.0;
    for (uint64_t i = offsets_[s]; i < offsets_[s + 1]; ++i) w += scores_[i];
    return w;
  }

  /// Σ max(0, ψ_j - U_j) over TC(s).
  double Marginal(SiteId s) const {
    double gain = 0.0;
    ForEachGain(s, [&](uint32_t, double, double g) { gain += g; });
    return gain;
  }

  /// The marginal when s serves at most `cap` trajectories: the sum of its
  /// `cap` largest per-trajectory gains. `gains` is caller scratch.
  double CappedMarginal(SiteId s, size_t cap,
                        std::vector<double>* gains) const {
    gains->clear();
    ForEachGain(s, [&](uint32_t, double, double g) { gains->push_back(g); });
    return CappedSum(gains, cap);
  }

  /// The capped utility of s on its own (every U_j taken as 0).
  double CappedWeight(SiteId s, size_t cap, std::vector<double>* gains) const {
    gains->assign(scores_.begin() + offsets_[s],
                  scores_.begin() + offsets_[s + 1]);
    return CappedSum(gains, cap);
  }

  /// Selects s: raises every U_j over TC(s) to ψ_j. Returns the gain.
  double Apply(SiteId s) {
    double gain = 0.0;
    ForEachGain(s, [&](uint32_t t, double score, double g) {
      gain += g;
      utility_[t] = score;
    });
    return gain;
  }

  /// Selects s to serve at most `cap` trajectories: the ones with the
  /// largest gains (ties by larger id). Returns the gain; `*served` is
  /// the number served.
  double ApplyCapped(SiteId s, size_t cap, uint32_t* served) {
    std::vector<std::pair<double, uint32_t>> ranked;  // (gain, traj)
    ForEachGain(s, [&](uint32_t t, double, double g) {
      ranked.emplace_back(g, t);
    });
    std::sort(ranked.begin(), ranked.end(), std::greater<>());
    if (ranked.size() > cap) ranked.resize(cap);
    double gain = 0.0;
    for (const auto& [g, t] : ranked) {
      utility_[t] += g;
      gain += g;
    }
    *served = static_cast<uint32_t>(ranked.size());
    return gain;
  }

 private:
  /// Calls fn(traj, ψ_j, ψ_j - U_j) for every entry of TC(s) with
  /// ψ_j > U_j, in TC order.
  template <typename Fn>
  void ForEachGain(SiteId s, Fn&& fn) const {
    const double* score = scores_.data() + offsets_[s];
    for (const CoverEntry& e : coverage_.TC(s)) {
      const double u = utility_[e.id];
      if (*score > u) fn(e.id, *score, *score - u);
      ++score;
    }
  }

  const CoverageIndex& coverage_;
  std::vector<uint64_t> offsets_;
  std::vector<double> scores_;
  std::vector<double> utility_;
};

// A scan's winner: the first site holding the largest value.
struct Pick {
  SiteId site = kInvalidSite;
  double value = 0.0;
};

// Scans sites [0, n) for the first site with the largest value(s, &gains),
// skipping sites for which it returns nullopt (`gains` is per-chunk
// scratch). Chunks keep their first strict maximum and the chunk winners
// are folded left to right under the same rule, so the pick is the serial
// scan's at every thread count and chunk layout.
template <typename ValueFn>
Pick ArgMaxScan(unsigned threads, size_t n, const ValueFn& value) {
  const auto better = [](const Pick& challenger, const Pick& best) {
    return challenger.site != kInvalidSite &&
           (best.site == kInvalidSite || challenger.value > best.value);
  };
  return util::ParallelReduce<Pick>(
      threads, n, Pick{},
      [&](size_t begin, size_t end) {
        Pick best;
        std::vector<double> gains;
        for (size_t i = begin; i < end; ++i) {
          const SiteId s = static_cast<SiteId>(i);
          const std::optional<double> v = value(s, &gains);
          if (v && better(Pick{s, *v}, best)) best = Pick{s, *v};
        }
        return best;
      },
      [&](Pick acc, Pick chunk) { return better(chunk, acc) ? chunk : acc; },
      util::CoarseGrain(threads, n, 8));
}

}  // namespace

CostResult CostGreedy(const CoverageIndex& coverage,
                      const PreferenceFunction& psi, const CostConfig& config) {
  NC_CHECK(!coverage.oom());
  NC_CHECK_EQ(config.site_costs.size(), coverage.num_sites());
  util::WallTimer timer;
  const unsigned threads = util::ResolveThreads(config.threads);
  CostResult result;
  ScoredCover state(coverage, psi, threads);

  const size_t n = coverage.num_sites();
  std::vector<uint8_t> excluded(n, 0);
  double spent = 0.0;

  // Greedy on marginal-gain per unit cost, pruning unaffordable sites.
  while (true) {
    const double remaining = config.budget - spent;
    const Pick best = ArgMaxScan(
        threads, n,
        [&](SiteId s, std::vector<double>*) -> std::optional<double> {
          if (excluded[s]) return std::nullopt;
          const double cost = config.site_costs[s];
          NC_CHECK_GT(cost, 0.0);
          if (cost > remaining) {
            excluded[s] = 1;  // pruned from S per Sec. 7.1
            return std::nullopt;
          }
          return state.Marginal(s) / cost;
        });
    if (best.site == kInvalidSite || best.value <= 0.0) break;
    const double gain = state.Apply(best.site);
    excluded[best.site] = 1;
    spent += config.site_costs[best.site];
    result.selection.sites.push_back(best.site);
    result.selection.marginal_gains.push_back(gain);
    result.selection.utility += gain;
  }
  result.total_cost = spent;

  // The s_max guard: the single affordable site with maximal standalone
  // utility; return whichever of {greedy set, {s_max}} is better. This is
  // what lifts the bound to (1 - 1/e) / 2 [Khuller et al. 24].
  const Pick smax = ArgMaxScan(
      threads, n, [&](SiteId s, std::vector<double>*) -> std::optional<double> {
        if (config.site_costs[s] > config.budget) return std::nullopt;
        return state.Weight(s);
      });
  if (smax.site != kInvalidSite && smax.value > result.selection.utility) {
    result.used_single_site_guard = true;
    result.selection.sites = {smax.site};
    result.selection.marginal_gains = {smax.value};
    result.selection.utility = smax.value;
    result.total_cost = config.site_costs[smax.site];
  }
  result.selection.solve_seconds = timer.Seconds();
  return result;
}

std::vector<double> DrawNormalCosts(size_t num_sites, double mean,
                                    double stddev, double min_cost,
                                    uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> costs(num_sites);
  for (double& c : costs) c = std::max(min_cost, rng.Normal(mean, stddev));
  return costs;
}

CapacityResult CapacityGreedy(const CoverageIndex& coverage,
                              const PreferenceFunction& psi,
                              const CapacityConfig& config) {
  NC_CHECK(!coverage.oom());
  NC_CHECK_EQ(config.site_capacities.size(), coverage.num_sites());
  util::WallTimer timer;
  const unsigned threads = util::ResolveThreads(config.threads);
  CapacityResult result;
  ScoredCover state(coverage, psi, threads);
  const size_t n = coverage.num_sites();
  std::vector<uint8_t> selected(n, 0);

  const uint32_t k =
      static_cast<uint32_t>(std::min<size_t>(config.k, n));
  for (uint32_t step = 0; step < k; ++step) {
    // Capped marginal: sum of the top-cap per-trajectory gains (Sec 7.2:
    // α_i = min(|TC(s_i)|, cap(s_i))).
    const Pick best = ArgMaxScan(
        threads, n,
        [&](SiteId s, std::vector<double>* gains) -> std::optional<double> {
          if (selected[s]) return std::nullopt;
          return state.CappedMarginal(s, CapOf(config.site_capacities[s]),
                                      gains);
        });
    if (best.site == kInvalidSite) break;
    selected[best.site] = 1;

    // Serve the top-cap trajectories of the chosen site.
    uint32_t served = 0;
    const double gain = state.ApplyCapped(
        best.site, CapOf(config.site_capacities[best.site]), &served);
    result.selection.sites.push_back(best.site);
    result.selection.marginal_gains.push_back(gain);
    result.selection.utility += gain;
    result.served_counts.push_back(served);
  }
  result.selection.solve_seconds = timer.Seconds();
  return result;
}

CostResult CostCapacityGreedy(const CoverageIndex& coverage,
                              const PreferenceFunction& psi,
                              const CostCapacityConfig& config) {
  NC_CHECK(!coverage.oom());
  NC_CHECK_EQ(config.site_costs.size(), coverage.num_sites());
  NC_CHECK_EQ(config.site_capacities.size(), coverage.num_sites());
  util::WallTimer timer;
  const unsigned threads = util::ResolveThreads(0);
  CostResult result;
  ScoredCover state(coverage, psi, threads);
  const size_t n = coverage.num_sites();
  std::vector<uint8_t> excluded(n, 0);
  double spent = 0.0;

  while (true) {
    const double remaining = config.budget - spent;
    const Pick best = ArgMaxScan(
        threads, n,
        [&](SiteId s, std::vector<double>* gains) -> std::optional<double> {
          if (excluded[s]) return std::nullopt;
          const double cost = config.site_costs[s];
          NC_CHECK_GT(cost, 0.0);
          if (cost > remaining) {
            excluded[s] = 1;
            return std::nullopt;
          }
          return state.CappedMarginal(s, CapOf(config.site_capacities[s]),
                                      gains) /
                 cost;
        });
    if (best.site == kInvalidSite || best.value <= 0.0) break;
    // Serve the chosen site's top-cap trajectories.
    uint32_t served = 0;
    const double gain = state.ApplyCapped(
        best.site, CapOf(config.site_capacities[best.site]), &served);
    excluded[best.site] = 1;
    spent += config.site_costs[best.site];
    result.selection.sites.push_back(best.site);
    result.selection.marginal_gains.push_back(gain);
    result.selection.utility += gain;
  }
  result.total_cost = spent;

  // Single-site guard against the ratio trap, with the capacity cap applied
  // to the standalone utilities as well.
  const Pick smax = ArgMaxScan(
      threads, n,
      [&](SiteId s, std::vector<double>* gains) -> std::optional<double> {
        if (config.site_costs[s] > config.budget) return std::nullopt;
        return state.CappedWeight(s, CapOf(config.site_capacities[s]), gains);
      });
  if (smax.site != kInvalidSite && smax.value > result.selection.utility) {
    result.used_single_site_guard = true;
    result.selection.sites = {smax.site};
    result.selection.marginal_gains = {smax.value};
    result.selection.utility = smax.value;
    result.total_cost = config.site_costs[smax.site];
  }
  result.selection.solve_seconds = timer.Seconds();
  return result;
}

std::vector<double> DrawNormalCapacities(size_t num_sites, double mean,
                                         double stddev, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> caps(num_sites);
  for (double& c : caps) c = std::max(1.0, rng.Normal(mean, stddev));
  return caps;
}

MarketShareResult MarketShareGreedy(const CoverageIndex& coverage,
                                    const MarketShareConfig& config) {
  NC_CHECK(!coverage.oom());
  NC_CHECK_GT(config.beta, 0.0);
  NC_CHECK_LE(config.beta, 1.0);
  util::WallTimer timer;
  const unsigned threads = util::ResolveThreads(0);
  MarketShareResult result;
  ScoredCover state(coverage, PreferenceFunction::Binary(), threads);
  const size_t n = coverage.num_sites();
  const size_t m = coverage.num_live_trajectories();
  const double target = config.beta * static_cast<double>(m);
  std::vector<uint8_t> selected(n, 0);

  double covered = 0.0;
  while (covered + 1e-9 < target) {
    if (config.max_sites != 0 &&
        result.selection.sites.size() >= config.max_sites) {
      break;
    }
    const Pick best = ArgMaxScan(
        threads, n, [&](SiteId s, std::vector<double>*) -> std::optional<double> {
          if (selected[s]) return std::nullopt;
          return state.Marginal(s);
        });
    if (best.site == kInvalidSite || best.value <= 0.0) break;  // saturated
    selected[best.site] = 1;
    const double gain = state.Apply(best.site);
    covered += gain;
    result.selection.sites.push_back(best.site);
    result.selection.marginal_gains.push_back(gain);
  }
  result.selection.utility = covered;
  result.covered_fraction = m == 0 ? 0.0 : covered / static_cast<double>(m);
  result.reached_target = covered + 1e-9 >= target;
  result.selection.solve_seconds = timer.Seconds();
  return result;
}

}  // namespace netclus::tops
