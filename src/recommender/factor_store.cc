#include "recommender/factor_store.h"

#include <cmath>
#include <cstring>
#include <string>
#include <utility>

namespace ganc {

namespace {

// Quantized codes span [-127, 127]; 254 steps across the row's value
// range. -128 is deliberately unused so the code range is symmetric
// (and the int16 madd pairs can never hit the -128 * -128 edge).
constexpr double kQuantSteps = 254.0;
constexpr int32_t kQuantMax = 127;

// Every table inside the factor section is preceded by this alignment
// (the scalar header is 25 bytes, so padding is required for the first
// table and harmless for the rest).
constexpr size_t kTableAlign = 8;

std::vector<float> NarrowToF32(std::span<const double> src) {
  std::vector<float> out(src.size());
  for (size_t i = 0; i < src.size(); ++i) out[i] = static_cast<float>(src[i]);
  return out;
}

}  // namespace

void FactorStore::AdoptFp64(std::vector<double> user, std::vector<double> item,
                            size_t user_rows, size_t item_rows,
                            size_t num_factors) {
  Clear();
  user_f64_ = std::move(user);
  item_f64_ = std::move(item);
  user_rows_ = user_rows;
  item_rows_ = item_rows;
  num_factors_ = num_factors;
  precision_ = FactorPrecision::kFp64;
  RebindViews();
}

void FactorStore::RebindViews() {
  user_f64_view_ = user_f64_;
  item_f64_view_ = item_f64_;
  user_f32_view_ = user_f32_;
  item_f32_view_ = item_f32_;
  user_qv_ = {user_q_.q, user_q_.scale, user_q_.center, user_q_.qsum};
  item_qv_ = {item_q_.q, item_q_.scale, item_q_.center, item_q_.qsum};
  keepalive_.reset();
}

FactorStore::QuantizedRows FactorStore::Quantize(std::span<const double> src,
                                                 size_t rows, size_t g) {
  QuantizedRows out;
  out.q.resize(rows * g);
  out.scale.resize(rows);
  out.center.resize(rows);
  out.qsum.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    const double* row = src.data() + r * g;
    double mn = row[0];
    double mx = row[0];
    for (size_t f = 1; f < g; ++f) {
      if (row[f] < mn) mn = row[f];
      if (row[f] > mx) mx = row[f];
    }
    // A constant row (mx == mn) quantizes to all-zero codes with the
    // value folded into the center; scale 1 keeps the dequant finite.
    const float scale =
        mx > mn ? static_cast<float>((mx - mn) / kQuantSteps) : 1.0f;
    const float center = static_cast<float>((mn + mx) / 2.0);
    int32_t qsum = 0;
    for (size_t f = 0; f < g; ++f) {
      const double q = std::nearbyint((row[f] - static_cast<double>(center)) /
                                      static_cast<double>(scale));
      const int32_t qi =
          q > kQuantMax ? kQuantMax
                        : (q < -kQuantMax ? -kQuantMax : static_cast<int32_t>(q));
      out.q[r * g + f] = static_cast<int8_t>(qi);
      qsum += qi;
    }
    out.scale[r] = scale;
    out.center[r] = center;
    out.qsum[r] = qsum;
  }
  return out;
}

Status FactorStore::SetPrecision(FactorPrecision p) {
  if (p == precision_) return Status::OK();
  if (precision_ != FactorPrecision::kFp64) {
    return Status::FailedPrecondition(
        std::string("factor tables already compacted to ") +
        FactorPrecisionName(precision_) +
        "; conversions only run off fp64 (re-fit or reload the fp64 "
        "artifact)");
  }
  if (empty()) {
    return Status::FailedPrecondition(
        "cannot change factor precision of an unfitted model");
  }
  switch (p) {
    case FactorPrecision::kFp32:
      user_f32_ = NarrowToF32(user_f64_view_);
      item_f32_ = NarrowToF32(item_f64_view_);
      break;
    case FactorPrecision::kInt8:
      user_q_ = Quantize(user_f64_view_, user_rows_, num_factors_);
      item_q_ = Quantize(item_f64_view_, item_rows_, num_factors_);
      break;
    case FactorPrecision::kFp64:
      break;  // unreachable: handled by the identity check above
  }
  user_f64_.clear();
  user_f64_.shrink_to_fit();
  item_f64_.clear();
  item_f64_.shrink_to_fit();
  precision_ = p;
  RebindViews();  // drops the artifact bytes reference, if any
  return Status::OK();
}

void FactorStore::BindView(FactorView* view) const {
  view->precision = precision_;
  view->num_factors = num_factors_;
  switch (precision_) {
    case FactorPrecision::kFp64:
      view->user_factors = user_f64_view_.data();
      view->item_factors = item_f64_view_.data();
      break;
    case FactorPrecision::kFp32:
      view->user_factors_f32 = user_f32_view_.data();
      view->item_factors_f32 = item_f32_view_.data();
      break;
    case FactorPrecision::kInt8:
      view->user_q8 = user_qv_.q.data();
      view->item_q8 = item_qv_.q.data();
      view->user_scale = user_qv_.scale.data();
      view->user_center = user_qv_.center.data();
      view->user_qsum = user_qv_.qsum.data();
      view->item_scale = item_qv_.scale.data();
      view->item_center = item_qv_.center.data();
      view->item_qsum = item_qv_.qsum.data();
      break;
  }
}

size_t FactorStore::ResidentBytes() const {
  switch (precision_) {
    case FactorPrecision::kFp64:
      return (user_f64_view_.size() + item_f64_view_.size()) * sizeof(double);
    case FactorPrecision::kFp32:
      return (user_f32_view_.size() + item_f32_view_.size()) * sizeof(float);
    case FactorPrecision::kInt8:
      return user_qv_.q.size() + item_qv_.q.size() +
             (user_qv_.scale.size() + user_qv_.center.size() +
              item_qv_.scale.size() + item_qv_.center.size()) *
                 sizeof(float) +
             (user_qv_.qsum.size() + item_qv_.qsum.size()) * sizeof(int32_t);
  }
  return 0;
}

void FactorStore::Save(PayloadWriter* w) const {
  w->WriteU8(static_cast<uint8_t>(precision_));
  w->WriteU64(num_factors_);
  w->WriteU64(user_rows_);
  w->WriteU64(item_rows_);
  auto vec_f64 = [w](std::span<const double> v) {
    w->AlignTo(kTableAlign);
    w->WriteVecRaw(v.data(), v.size());
  };
  auto vec_f32 = [w](std::span<const float> v) {
    w->AlignTo(kTableAlign);
    w->WriteVecRaw(v.data(), v.size());
  };
  switch (precision_) {
    case FactorPrecision::kFp64:
      vec_f64(user_f64_view_);
      vec_f64(item_f64_view_);
      break;
    case FactorPrecision::kFp32:
      vec_f32(user_f32_view_);
      vec_f32(item_f32_view_);
      break;
    case FactorPrecision::kInt8:
      for (const QuantizedRowsView* q : {&user_qv_, &item_qv_}) {
        w->AlignTo(kTableAlign);
        w->WriteVecRaw(q->q.data(), q->q.size());
        vec_f32(q->scale);
        vec_f32(q->center);
        w->AlignTo(kTableAlign);
        w->WriteVecRaw(q->qsum.data(), q->qsum.size());
      }
      break;
  }
}

Status FactorStore::ReadScalarHeader(PayloadReader* r) {
  uint8_t tag = 0;
  GANC_RETURN_NOT_OK(r->ReadU8(&tag));
  if (tag != static_cast<uint8_t>(FactorPrecision::kFp64) &&
      tag != static_cast<uint8_t>(FactorPrecision::kFp32) &&
      tag != static_cast<uint8_t>(FactorPrecision::kInt8)) {
    return Status::InvalidArgument(
        "factor table section holds unknown precision tag " +
        std::to_string(static_cast<int>(tag)));
  }
  uint64_t g = 0;
  uint64_t user_rows = 0;
  uint64_t item_rows = 0;
  GANC_RETURN_NOT_OK(r->ReadU64(&g));
  GANC_RETURN_NOT_OK(r->ReadU64(&user_rows));
  GANC_RETURN_NOT_OK(r->ReadU64(&item_rows));
  if (g == 0 || user_rows == 0 || item_rows == 0) {
    return Status::InvalidArgument(
        "factor table section has empty dimensions");
  }
  num_factors_ = static_cast<size_t>(g);
  user_rows_ = static_cast<size_t>(user_rows);
  item_rows_ = static_cast<size_t>(item_rows);
  precision_ = static_cast<FactorPrecision>(tag);
  return Status::OK();
}

Status FactorStore::LoadQuantizedBorrowed(PayloadReader* r,
                                          QuantizedRowsView* out, size_t rows,
                                          const char* side) const {
  GANC_RETURN_NOT_OK(r->SkipAlign(kTableAlign));
  GANC_RETURN_NOT_OK(r->BorrowVec(&out->q));
  GANC_RETURN_NOT_OK(r->SkipAlign(kTableAlign));
  GANC_RETURN_NOT_OK(r->BorrowVec(&out->scale));
  GANC_RETURN_NOT_OK(r->SkipAlign(kTableAlign));
  GANC_RETURN_NOT_OK(r->BorrowVec(&out->center));
  GANC_RETURN_NOT_OK(r->SkipAlign(kTableAlign));
  GANC_RETURN_NOT_OK(r->BorrowVec(&out->qsum));
  if (out->q.size() != rows * num_factors_) {
    return Status::InvalidArgument(
        std::string("factor table section: ") + side +
        " int8 code table has wrong length");
  }
  if (out->scale.size() != rows || out->center.size() != rows ||
      out->qsum.size() != rows) {
    return Status::InvalidArgument(
        std::string("factor table section: ") + side +
        " quantization side tables (scale/center/qsum) have wrong length");
  }
  return Status::OK();
}

Status FactorStore::LoadBorrowed(PayloadReader* r) {
  switch (precision_) {
    case FactorPrecision::kFp64:
      GANC_RETURN_NOT_OK(r->SkipAlign(kTableAlign));
      GANC_RETURN_NOT_OK(r->BorrowVec(&user_f64_view_));
      GANC_RETURN_NOT_OK(r->SkipAlign(kTableAlign));
      GANC_RETURN_NOT_OK(r->BorrowVec(&item_f64_view_));
      if (user_f64_view_.size() != user_rows_ * num_factors_ ||
          item_f64_view_.size() != item_rows_ * num_factors_) {
        return Status::InvalidArgument(
            "factor table section: fp64 tables have wrong length");
      }
      break;
    case FactorPrecision::kFp32:
      GANC_RETURN_NOT_OK(r->SkipAlign(kTableAlign));
      GANC_RETURN_NOT_OK(r->BorrowVec(&user_f32_view_));
      GANC_RETURN_NOT_OK(r->SkipAlign(kTableAlign));
      GANC_RETURN_NOT_OK(r->BorrowVec(&item_f32_view_));
      if (user_f32_view_.size() != user_rows_ * num_factors_ ||
          item_f32_view_.size() != item_rows_ * num_factors_) {
        return Status::InvalidArgument(
            "factor table section: fp32 tables have wrong length");
      }
      break;
    case FactorPrecision::kInt8:
      GANC_RETURN_NOT_OK(
          LoadQuantizedBorrowed(r, &user_qv_, user_rows_, "user"));
      GANC_RETURN_NOT_OK(
          LoadQuantizedBorrowed(r, &item_qv_, item_rows_, "item"));
      break;
  }
  return Status::OK();
}

Status FactorStore::Load(std::string_view payload,
                         std::shared_ptr<const void> keepalive) {
  Clear();
  PayloadReader r(payload);
  GANC_RETURN_NOT_OK(ReadScalarHeader(&r));
  GANC_RETURN_NOT_OK(LoadBorrowed(&r));
  GANC_RETURN_NOT_OK(r.ExpectEnd());
  keepalive_ = std::move(keepalive);
  return Status::OK();
}

void FactorStore::Clear() {
  precision_ = FactorPrecision::kFp64;
  user_rows_ = item_rows_ = num_factors_ = 0;
  user_f64_.clear();
  item_f64_.clear();
  user_f32_.clear();
  item_f32_.clear();
  user_q_ = QuantizedRows{};
  item_q_ = QuantizedRows{};
  RebindViews();
}

}  // namespace ganc
