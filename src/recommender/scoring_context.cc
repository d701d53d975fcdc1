#include "recommender/scoring_context.h"

namespace ganc {

std::span<double> ScoringContext::Buffer(size_t slot, size_t n) {
  CheckOwner();
  if (buffers_.size() <= slot) buffers_.resize(slot + 1);
  AlignedVector<double>& buf = buffers_[slot];
  buf.resize(n);  // shrinking keeps capacity: no reallocation churn
  return {buf.data(), n};
}

std::span<double> ScoringContext::BatchScores(size_t n) {
  CheckOwner();
  batch_scores_.resize(n);  // shrinking keeps capacity
  return {batch_scores_.data(), n};
}

std::span<double> ScoringContext::CandidateScores(size_t n) {
  CheckOwner();
  candidate_scores_.resize(n);  // shrinking keeps capacity
  return {candidate_scores_.data(), n};
}

std::vector<ItemId>& ScoringContext::Items(size_t slot) {
  CheckOwner();
  if (items_.size() <= slot) items_.resize(slot + 1);
  return items_[slot];
}

}  // namespace ganc
