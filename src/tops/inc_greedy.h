// Inc-Greedy (Sec. 3.3, Algorithm 1): the (1 - 1/e)-approximate greedy
// solver for TOPS, with marginal-gain bookkeeping over the covering sets.
//
// Also supports warm-starting from existing service locations ES
// (Sec. 7.3): Q starts at ES, marginals are discounted accordingly, and the
// same (1 - 1/e) bound holds for the extra utility.
//
// Evaluation is lazy (CELF; Leskovec et al., KDD 2007): ψ is scored once per
// TC entry, and a max-heap keyed by (marginal bound, weight, id) starts at
// the site weights. Each round re-scores stale tops from TC(s) alone and
// selects the first top whose bound is fresh this round. Every term
// max(0, ψ - U_j) of a marginal only falls as utilities rise and a float
// sum in fixed order is monotone in its terms, so a stale bound is never
// below the true marginal, and a fresh top is the exact argmax under
// Algorithm 1's order (marginal, then weight, then id). SC is never read.
//
// Once utility is exhausted (every remaining marginal is 0; k exceeds the
// sites with positive gain), picks follow (0, weight, id): the largest
// weight first. An eager solver that updates marginals by subtraction picks
// by the rounding residue those updates leave instead; gains (all zero)
// and utility are the same either way. The residue also decides the eager
// pick at near-ties above zero, where two fresh marginals differ only in
// their last bits (or tie while the residues differ); there the lazy pick
// is the larger fresh sum, and the two solvers' later rounds diverge.
// tests/test_greedy.cc pins both cases against an eager copy.
#ifndef NETCLUS_TOPS_INC_GREEDY_H_
#define NETCLUS_TOPS_INC_GREEDY_H_

#include <cstdint>
#include <vector>

#include "tops/coverage.h"
#include "tops/preference.h"
#include "tops/site_set.h"

namespace netclus::tops {

struct GreedyConfig {
  uint32_t k = 5;
  /// Existing service locations ES (Sec. 7.3): treated as already selected;
  /// not counted against k and not reported in Selection::sites.
  std::vector<SiteId> existing_services;
  /// Worker threads for scoring ψ once per TC entry (0 = NETCLUS_THREADS
  /// default). The greedy rounds are serial, so selections are identical
  /// at every thread count.
  uint32_t threads = 0;
};

/// Result of any TOPS solver in this library.
struct Selection {
  std::vector<SiteId> sites;          ///< chosen sites, in selection order
  std::vector<double> marginal_gains; ///< utility gain per selection step
  double utility = 0.0;               ///< U(Q ∪ ES) under ψ
  double base_utility = 0.0;          ///< U(ES) alone (0 when ES is empty)
  double solve_seconds = 0.0;         ///< iterative phase only (covering
                                      ///< sets are an input, per Sec. 8.6)
};

/// Runs Inc-Greedy on a prebuilt coverage index.
Selection IncGreedy(const CoverageIndex& coverage, const PreferenceFunction& psi,
                    const GreedyConfig& config);

/// Recomputes U(Q) for an explicit selection from the coverage index
/// (exact; used to cross-check and to score sketch-based selections).
double UtilityOf(const CoverageIndex& coverage, const PreferenceFunction& psi,
                 const std::vector<SiteId>& selection);

}  // namespace netclus::tops

#endif  // NETCLUS_TOPS_INC_GREEDY_H_
