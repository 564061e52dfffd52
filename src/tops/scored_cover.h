// The greedy state the TOPS solvers share (internal to src/tops): ψ(d_r, τ)
// of every TC entry, scored once per solve, and the per-trajectory
// utilities U_j. Inc-Greedy and the variant solvers (COST, CAPACITY,
// cost+capacity, market share) all run on it.
#ifndef NETCLUS_TOPS_SCORED_COVER_H_
#define NETCLUS_TOPS_SCORED_COVER_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "tops/coverage.h"
#include "tops/preference.h"
#include "tops/site_set.h"

namespace netclus::tops {

/// The scores of TC(s) are scores_[offsets_[s], offsets_[s + 1]) in TC
/// order; rounds walk TC(s)'s ids alongside that slice. Each score is the
/// PreferenceFunction::Score call a round would make and every sum runs in
/// TC order, so marginals are bit-identical to re-scoring in every round.
class ScoredCover {
 public:
  /// Scores every TC entry and sums each site's weight under `threads`
  /// (each site's slice is filled on its own, so neither depends on the
  /// thread count).
  ScoredCover(const CoverageIndex& coverage, const PreferenceFunction& psi,
              unsigned threads);

  /// Σ ψ over TC(s): the site weight w_s, as CoverageIndex::SiteWeight sums it.
  double Weight(SiteId s) const { return weights_[s]; }

  /// Σ max(0, ψ_j - U_j) over TC(s). Each term only falls as utilities
  /// rise, and a float sum in fixed order is monotone in its terms, so a
  /// marginal computed earlier bounds every later one from above.
  double Marginal(SiteId s) const {
    // A term with ψ_j <= U_j adds +0.0, which leaves the sum unchanged, so
    // this equals summing only the positive gains.
    double gain = 0.0;
    const double* score = scores_.data() + offsets_[s];
    coverage_.TC(s).ForEach([&](const CoverEntry& e) {
      gain += PositivePart(*score++ - utility_[e.id]);
    });
    return gain;
  }

  /// The marginal when s serves at most `cap` trajectories: the sum of its
  /// `cap` largest per-trajectory gains. `gains` is caller scratch.
  double CappedMarginal(SiteId s, size_t cap, std::vector<double>* gains) const;

  /// The capped utility of s on its own (every U_j taken as 0).
  double CappedWeight(SiteId s, size_t cap, std::vector<double>* gains) const;

  /// Selects s: raises every U_j over TC(s) to ψ_j. Returns the gain, which
  /// equals Marginal(s) just before the call bit for bit.
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
  double ApplyCapped(SiteId s, size_t cap, uint32_t* served);

 private:
  /// d > 0 ? d : +0.0, by masking the bits. Compilers branch on
  /// std::max(0.0, d), and in a marginal that branch is taken at random.
  static double PositivePart(double d) {
    const uint64_t keep = -static_cast<uint64_t>(d > 0.0);
    return std::bit_cast<double>(std::bit_cast<uint64_t>(d) & keep);
  }

  /// Calls fn(traj, ψ_j, ψ_j - U_j) for every entry of TC(s) with
  /// ψ_j > U_j, in TC order.
  template <typename Fn>
  void ForEachGain(SiteId s, Fn&& fn) const {
    const double* score = scores_.data() + offsets_[s];
    coverage_.TC(s).ForEach([&](const CoverEntry& e) {
      const double u = utility_[e.id];
      if (*score > u) fn(e.id, *score, *score - u);
      ++score;
    });
  }

  const CoverageIndex& coverage_;
  std::vector<uint64_t> offsets_;
  std::vector<double> scores_;
  std::vector<double> weights_;  ///< Σ of each site's slice, in TC order
  std::vector<double> utility_;
};

}  // namespace netclus::tops

#endif  // NETCLUS_TOPS_SCORED_COVER_H_
