#include "sketch/fm_sketch.h"

#include <bit>
#include <cmath>
#include <utility>

#include "util/logging.h"

namespace netclus::sketch {

namespace {
// Flajolet-Martin magic constant: E[2^R] = phi * n for large n.
constexpr double kPhi = 0.77351;
}  // namespace

FmSketch::FmSketch(uint32_t num_copies, uint64_t seed) : seed_(seed) {
  NC_CHECK_GT(num_copies, 0u);
  auto salts = std::make_shared<std::vector<uint64_t>>(num_copies);
  for (uint32_t i = 0; i < num_copies; ++i) {
    (*salts)[i] = util::SplitMix64(seed + 0x9e3779b97f4a7c15ULL * (i + 1ULL));
  }
  salts_ = std::move(salts);
  words_.assign(num_copies, 0u);
}

void FmSketch::Add(uint64_t element) {
  const uint64_t* salts = salts_->data();
  for (size_t i = 0; i < words_.size(); ++i) {
    words_[i] |= ElementBit(element, salts[i]);
  }
}

void FmSketch::ElementMask(uint64_t element, uint32_t* mask) const {
  const uint64_t* salts = salts_->data();
  for (size_t i = 0; i < words_.size(); ++i) {
    mask[i] = ElementBit(element, salts[i]);
  }
}

void FmSketch::AddMask(const uint32_t* mask) {
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= mask[i];
}

void FmSketch::Merge(const FmSketch& other) {
  NC_CHECK_EQ(words_.size(), other.words_.size());
  NC_CHECK_EQ(seed_, other.seed_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

FmSketch FmSketch::Union(const FmSketch& other) const {
  FmSketch out = *this;
  out.Merge(other);
  return out;
}

double FmSketch::EstimateFromWords(const uint32_t* words, size_t count) {
  // R = index of the lowest zero bit = trailing-one count.
  double sum_r = 0.0;
  for (size_t i = 0; i < count; ++i) {
    sum_r += static_cast<double>(std::countr_one(words[i]));
  }
  const double mean_r = sum_r / static_cast<double>(count);
  const double estimate = std::exp2(mean_r) / kPhi;
  // An empty sketch has R = 0 => estimate 1/phi ~ 1.29; clamp to 0 when no
  // bit is set anywhere so that empty sets estimate as empty.
  bool any = false;
  for (size_t i = 0; i < count; ++i) {
    if (words[i] != 0) {
      any = true;
      break;
    }
  }
  return any ? estimate : 0.0;
}

double FmSketch::Estimate() const {
  return EstimateFromWords(words_.data(), words_.size());
}

double FmSketch::UnionEstimate(const FmSketch& other) const {
  NC_CHECK_EQ(words_.size(), other.words_.size());
  NC_CHECK_EQ(seed_, other.seed_);
  double sum_r = 0.0;
  bool any = false;
  for (size_t i = 0; i < words_.size(); ++i) {
    const uint32_t merged = words_[i] | other.words_[i];
    any = any || merged != 0;
    sum_r += static_cast<double>(std::countr_one(merged));
  }
  if (!any) return 0.0;
  const double mean_r = sum_r / static_cast<double>(words_.size());
  return std::exp2(mean_r) / kPhi;
}

void FmSketch::Clear() {
  for (uint32_t& w : words_) w = 0u;
}

bool FmSketch::IsEmpty() const {
  for (uint32_t w : words_) {
    if (w != 0) return false;
  }
  return true;
}

double FmSketch::StandardErrorFraction(uint32_t num_copies) {
  return 0.78 / std::sqrt(static_cast<double>(num_copies));
}

}  // namespace netclus::sketch
