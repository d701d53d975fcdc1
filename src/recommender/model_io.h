// Model artifact type registry and path-based save/load entry points.
//
// Every Recommender serializes itself through Save/Load (see
// recommender.h for the contract and docs/FORMATS.md for the wire
// layout). This header owns the model type tags stored in artifact
// headers plus the factory that reads a tag and constructs the right
// concrete class — the piece a serving process needs to load "whatever
// model training saved" without hardcoding the type.

#ifndef GANC_RECOMMENDER_MODEL_IO_H_
#define GANC_RECOMMENDER_MODEL_IO_H_

#include <cstdint>
#include <memory>
#include <string>

#include "recommender/recommender.h"
#include "util/serialize.h"
#include "util/status.h"

namespace ganc {

/// Stable type tags stored in model artifact headers. Append-only: a
/// tag, once shipped, is never reused for a different model.
enum class ModelType : uint32_t {
  kPop = 1,
  kRandom = 2,
  kRandomWalk = 3,
  kItemKnn = 4,
  kUserKnn = 5,
  kPsvd = 6,
  kRsvd = 7,
  kBpr = 8,
  kCofi = 9,
};

/// Section ids shared by all model artifacts: hyper-parameters first,
/// learned state second; the latent-factor models (PSVD, RSVD, BPR,
/// CofiR) append their factor tables as a third section at whatever
/// precision is active (FactorStore, docs/FORMATS.md §factor tables).
inline constexpr uint32_t kModelConfigSection = 1;
inline constexpr uint32_t kModelStateSection = 2;
inline constexpr uint32_t kFactorTableSection = 3;

/// Reads the artifact header from `r` and validates kind/type. The
/// shared prologue of every Recommender::Load implementation.
Status ReadModelHeader(ArtifactReader& r, ModelType type);

/// Saves a fitted model to `path` (overwrites).
Status SaveModelFile(const Recommender& model, const std::string& path);

/// Reads the model type tag from the artifact header, constructs the
/// matching recommender (with default hyper-parameters, which Load then
/// overwrites from the artifact), and loads it through the same reader.
/// The latent-factor models borrow their factor tables zero-copy from
/// the reader's bytes. `train` rebinds the dataset-backed models;
/// self-contained models ignore it. The reader is left positioned after
/// the end marker.
Result<std::unique_ptr<Recommender>> LoadModel(ArtifactReader& r,
                                               const RatingDataset* train);

/// LoadModel over a file path, mapped when `prefer_mmap` (and the
/// platform can map files), read() into memory otherwise.
Result<std::unique_ptr<Recommender>> LoadModelFileAuto(
    const std::string& path, bool prefer_mmap, const RatingDataset* train);

}  // namespace ganc

#endif  // GANC_RECOMMENDER_MODEL_IO_H_
