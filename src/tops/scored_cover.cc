#include "tops/scored_cover.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/parallel.h"

namespace netclus::tops {

namespace {

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

}  // namespace

ScoredCover::ScoredCover(const CoverageIndex& coverage,
                         const PreferenceFunction& psi, unsigned threads)
    : coverage_(coverage),
      offsets_(coverage.num_sites() + 1, 0),
      weights_(coverage.num_sites(), 0.0),
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
          double weight = 0.0;
          coverage.TC(static_cast<SiteId>(s)).ForEach([&](const CoverEntry& e) {
            *out = psi.Score(e.dr_m, tau);
            weight += *out++;
          });
          weights_[s] = weight;
        }
      },
      util::CoarseGrain(threads, n, 8));
}

double ScoredCover::CappedMarginal(SiteId s, size_t cap,
                                   std::vector<double>* gains) const {
  gains->clear();
  ForEachGain(s, [&](uint32_t, double, double g) { gains->push_back(g); });
  return CappedSum(gains, cap);
}

double ScoredCover::CappedWeight(SiteId s, size_t cap,
                                 std::vector<double>* gains) const {
  gains->assign(scores_.begin() + offsets_[s],
                scores_.begin() + offsets_[s + 1]);
  return CappedSum(gains, cap);
}

double ScoredCover::ApplyCapped(SiteId s, size_t cap, uint32_t* served) {
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

}  // namespace netclus::tops
