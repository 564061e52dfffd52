// Flajolet-Martin probabilistic distinct counting (Sec. 3.5).
//
// An FM sketch is `f` independent 32-bit words; element x sets, in copy i,
// the bit whose index is the number of trailing zeros of an independent
// hash of x (bit j is set with probability 2^-(j+1)). The estimate uses the
// position R of the lowest unset bit: E[R] ~ log2(phi * n) with
// phi = 0.77351, so n_hat = 2^(mean R) / phi. Unions are exact under
// bitwise OR, which is what makes the sketch useful for incremental
// coverage counting: the marginal gain of a site over a selected set is
// estimate(base | site) - estimate(base).
//
// 32-bit words handle ~4 billion distinct elements, as in the paper, and
// OR over them is a single instruction.
#ifndef NETCLUS_SKETCH_FM_SKETCH_H_
#define NETCLUS_SKETCH_FM_SKETCH_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/rng.h"

namespace netclus::sketch {

class FmSketch {
 public:
  /// `num_copies` is the paper's f (error decreases as f grows); all
  /// sketches that will be merged/compared must share the same `seed`.
  explicit FmSketch(uint32_t num_copies = 30,
                    uint64_t seed = 0x5eedf00d5eedf00dULL);

  /// Inserts an element (idempotent): ORs ElementBit(element, salt_i) into
  /// copy i.
  void Add(uint64_t element);

  /// The bit `element` sets in a copy whose salt is `salt`: a single set
  /// bit at a geometric(1/2) position. Copy i of a sketch with seed `seed`
  /// has salt SplitMix64(seed + 0x9e3779b97f4a7c15 * (i + 1)). The one
  /// definition of an element's bits; Add and ElementMask both use it.
  static uint32_t ElementBit(uint64_t element, uint64_t salt) {
    const uint64_t h = util::SplitMix64(element ^ salt);
    // Trailing zero count gives a geometric(1/2) bit position.
    const int pos = h == 0 ? 31 : std::min(31, std::countr_zero(h));
    return 1u << pos;
  }

  /// Writes `element`'s bit of every copy into mask[0, num_copies()).
  /// AddMask(mask) then equals Add(element), so a caller adding the same
  /// element to many sketches hashes it once.
  void ElementMask(uint64_t element, uint32_t* mask) const;

  /// ORs a mask from ElementMask of a sketch with the same copies and seed.
  void AddMask(const uint32_t* mask);

  /// Bitwise-OR union; other must have the same copies and seed.
  void Merge(const FmSketch& other);

  /// Returns the union of this sketch and `other` without mutating either.
  FmSketch Union(const FmSketch& other) const;

  /// Estimated number of distinct inserted elements.
  double Estimate() const;

  /// Estimate of |this ∪ other| computed on the fly (no allocation).
  double UnionEstimate(const FmSketch& other) const;

  /// Resets to empty.
  void Clear();

  bool IsEmpty() const;

  uint32_t num_copies() const { return static_cast<uint32_t>(words_.size()); }
  /// The sketch's bits, one word per copy.
  const std::vector<uint32_t>& words() const { return words_; }
  uint64_t seed() const { return seed_; }

  /// Standard error of the estimate as a fraction, ~0.78 / sqrt(f).
  static double StandardErrorFraction(uint32_t num_copies);

  /// Analytic memory footprint in bytes.
  uint64_t MemoryBytes() const { return words_.capacity() * sizeof(uint32_t); }

 private:
  static double EstimateFromWords(const uint32_t* words, size_t count);

  uint64_t seed_;
  /// Salt of each copy, computed once; copies of a sketch share it.
  std::shared_ptr<const std::vector<uint64_t>> salts_;
  std::vector<uint32_t> words_;
};

}  // namespace netclus::sketch

#endif  // NETCLUS_SKETCH_FM_SKETCH_H_
