// Shared reader/writer for the GANC binary artifact format: the on-disk
// representation behind model artifacts (Recommender::Save/Load), the
// binary dataset cache (RatingDataset::SaveBinary/LoadBinary), and
// pipeline state (GancPipeline::Save/Load).
//
// An artifact is a fixed header (magic, format version, artifact kind,
// type tag) followed by a sequence of independently checksummed
// sections and a mandatory end marker:
//
//   [magic 8B] [version u32] [kind u32] [tag u32] [reserved u32]
//   { [section id u32] [payload size u64] [pad] [payload] [FNV-1a u64] }*
//   [end marker: id 0, size 0, FNV-1a of the empty payload]
//
// Since format version 3, zero bytes are inserted between the size
// field and the payload so every payload starts on a 64-byte boundary
// (`pad = (-offset) mod 64`, where offset is the absolute file position
// after the size field; the end marker is never padded). Alignment is
// what lets a memory-mapped artifact hand out borrowed views straight
// into the page cache: offset tables, CSR rows, and factor tables are
// read in place with zero copies. Version 2 artifacts (no padding) are
// still read by the stream path.
//
// All integers and floats are little-endian; floats are raw IEEE-754
// bits, so doubles round-trip bit-exactly. Every stream read is
// validated: bad magic, an unknown version, a truncated stream, or a
// corrupted section surfaces as a Status error, never as garbage state.
// The mapped reader bounds-checks every record against the file size
// (truncation is a typed error, not UB) but only verifies checksums of
// payloads up to kMappedChecksumVerifyBytes — hashing a multi-GB
// section would fault in every page and defeat the out-of-core point.
// The normative spec lives in docs/FORMATS.md and must stay in sync
// with the constants below (CI greps kGancFormatVersion in both files).

#ifndef GANC_UTIL_SERIALIZE_H_
#define GANC_UTIL_SERIALIZE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/binary_io.h"
#include "util/mmap_region.h"
#include "util/status.h"

namespace ganc {

/// Current on-disk format version, bumped on any incompatible layout
/// change. Writers always emit this version; readers also accept older
/// versions down to kMinSupportedReadVersion (stream path only).
/// Keep docs/FORMATS.md in sync (CI greps the literal in both files).
inline constexpr uint32_t kGancFormatVersion = 3;

/// Oldest version the stream reader still accepts. v2 differs from v3
/// only by the absence of section padding; v1 never shipped.
inline constexpr uint32_t kMinSupportedReadVersion = 2;

/// Section payloads start on this boundary from format v3 on.
inline constexpr uint64_t kSectionAlignment = 64;

/// The mapped reader verifies checksums only for payloads at most this
/// large; bigger sections are bounds-checked but read lazily in place.
inline constexpr uint64_t kMappedChecksumVerifyBytes = 1ULL << 20;  // 1 MiB

/// 8-byte file magic, "GANCART" + NUL.
inline constexpr char kGancArtifactMagic[8] = {'G', 'A', 'N', 'C',
                                               'A', 'R', 'T', '\0'};

/// What an artifact holds; stored in the header so a model file is never
/// mistaken for a dataset cache.
enum class ArtifactKind : uint32_t {
  kModel = 1,         ///< one fitted Recommender (tag = ModelType)
  kDatasetCache = 2,  ///< a RatingDataset in CSR layout (tag = 0)
  kPipeline = 3,      ///< GancPipeline offline state (tag = 0)
  kTopNStore = 4,     ///< precomputed serving top-N lists (tag = 0)
};

/// Section id 0 terminates the section list.
inline constexpr uint32_t kEndSectionId = 0;

/// Hard cap on a single section payload (refuses implausible sizes
/// before allocating).
inline constexpr uint64_t kMaxSectionBytes = 1ULL << 34;  // 16 GiB

/// Host endianness gate for the bulk memcpy/borrow fast paths; the
/// element-wise fallbacks keep big-endian hosts correct (without
/// zero-copy).
inline constexpr bool kGancHostIsLittleEndian =
    std::endian::native == std::endian::little;

/// Accumulates a section payload in memory with little-endian encoding.
/// Vector writers prepend a u64 element count.
class PayloadWriter {
 public:
  void WriteU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI32(int32_t v) { WriteU32(static_cast<uint32_t>(v)); }
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteF32(float v);
  void WriteF64(double v);
  void WriteBytes(const void* data, size_t size);
  /// u64 length + raw bytes.
  void WriteString(std::string_view s);
  /// Zero-pads the payload so the next write starts at a multiple of
  /// `alignment` *within the payload*. Payloads start 64-byte aligned
  /// in the file (v3), so in-payload alignment is file alignment for
  /// any alignment dividing kSectionAlignment.
  void AlignTo(size_t alignment);
  void WriteVecF64(const std::vector<double>& v);
  void WriteVecF32(const std::vector<float>& v);
  void WriteVecI32(const std::vector<int32_t>& v);
  void WriteVecU64(const std::vector<uint64_t>& v);
  void WriteVecI8(const std::vector<int8_t>& v);
  /// u64 count + raw little-endian elements of any trivially copyable
  /// wire struct whose in-memory layout equals its wire layout on
  /// little-endian hosts (e.g. ItemRating).
  template <typename T>
  void WriteVecRaw(const T* data, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteU64(static_cast<uint64_t>(count));
    WriteBytes(data, count * sizeof(T));
  }

  const std::string& buffer() const { return buf_; }

 private:
  std::string buf_;
};

/// Decodes a section payload. Every read checks for underrun; vector
/// reads additionally bound the element count by the remaining bytes.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view bytes) : bytes_(bytes) {}

  Status ReadU8(uint8_t* out);
  Status ReadU32(uint32_t* out);
  Status ReadU64(uint64_t* out);
  Status ReadI32(int32_t* out);
  Status ReadI64(int64_t* out);
  Status ReadF32(float* out);
  Status ReadF64(double* out);
  Status ReadString(std::string* out);
  /// Skips the zero padding a matching AlignTo wrote (rejects nonzero
  /// pad bytes — they indicate layout drift or corruption).
  Status SkipAlign(size_t alignment);
  Status ReadVecF64(std::vector<double>* out);
  Status ReadVecF32(std::vector<float>* out);
  Status ReadVecI32(std::vector<int32_t>* out);
  Status ReadVecU64(std::vector<uint64_t>* out);
  Status ReadVecI8(std::vector<int8_t>* out);

  /// Zero-copy read of a [count u64][elements] vector: the returned
  /// span aliases the payload bytes, valid only as long as the backing
  /// storage (for mapped artifacts, the mapping). Requires a
  /// little-endian host and element-aligned data — misalignment is a
  /// typed error, since a v3 writer always aligns borrowable tables.
  template <typename T>
  Status BorrowVec(std::span<const T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if constexpr (!kGancHostIsLittleEndian) {
      return Status::NotImplemented(
          "zero-copy payload views require a little-endian host");
    }
    uint64_t count = 0;
    GANC_RETURN_NOT_OK(ReadU64(&count));
    if (count > remaining() / sizeof(T)) {  // divide: no u64 wrap
      return Status::InvalidArgument("vector length exceeds section payload");
    }
    const char* base = bytes_.data() + pos_;
    if (reinterpret_cast<uintptr_t>(base) % alignof(T) != 0) {
      return Status::InvalidArgument(
          "misaligned vector data in mapped section payload");
    }
    *out = std::span<const T>(reinterpret_cast<const T*>(base),
                              static_cast<size_t>(count));
    pos_ += static_cast<size_t>(count) * sizeof(T);
    return Status::OK();
  }

  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }
  /// Error when trailing bytes remain (catches layout drift).
  Status ExpectEnd() const;

 private:
  Status Require(size_t n) const;
  /// u64 count + elements: one memcpy on little-endian hosts (and for
  /// single bytes), else `read_one` per element. Empty vectors copy
  /// nothing, since their data() may be null.
  template <typename T, typename ReadOne>
  Status ReadVec(std::vector<T>* out, ReadOne&& read_one);

  std::string_view bytes_;
  size_t pos_ = 0;
};

/// Parsed artifact header.
struct ArtifactHeader {
  uint32_t version = 0;
  uint32_t kind = 0;
  uint32_t type_tag = 0;
};

/// Writes the header, then checksummed sections, then the end marker.
/// Always emits the current format version (v3): padded sections. The
/// streaming Begin/Append/End triple writes a section whose size is
/// known up front without buffering the payload — the path the
/// O(users)-memory synthetic generator uses for multi-hundred-MB row
/// sections.
class ArtifactWriter {
 public:
  explicit ArtifactWriter(std::ostream& os) : os_(os) {}

  Status WriteHeader(ArtifactKind kind, uint32_t type_tag);
  Status WriteSection(uint32_t id, const PayloadWriter& payload);

  /// Starts a section of exactly `size` payload bytes, to be delivered
  /// via AppendSectionBytes and closed with EndSection.
  Status BeginSection(uint32_t id, uint64_t size);
  Status AppendSectionBytes(const void* data, size_t size);
  /// Requires the appended total to match the declared size, then
  /// writes the checksum accumulated incrementally over the appends.
  Status EndSection();

  /// Writes the end marker; the artifact is incomplete without it.
  Status Finish();

 private:
  Status WriteSectionPrefix(uint32_t id, uint64_t size);

  std::ostream& os_;
  uint64_t pos_ = 0;  // absolute offset, drives payload alignment
  // In-flight streaming section state.
  bool in_section_ = false;
  uint64_t declared_ = 0;
  uint64_t appended_ = 0;
  Fnv1aHasher hasher_;
};

/// A whole artifact file mapped read-only, shared by every borrowed
/// view into it (datasets, stores, and factor tables hold a
/// shared_ptr<const MappedArtifact> keepalive). Open() requires format
/// v3 — earlier versions lack the alignment guarantee — and signals
/// "use the stream reader instead" with kFailedPrecondition (old
/// version) or kNotImplemented (no mmap on this platform).
class MappedArtifact {
 public:
  static Result<MappedArtifact> Open(const std::string& path);

  std::string_view bytes() const { return region_.bytes(); }
  const ArtifactHeader& header() const { return header_; }
  const std::string& path() const { return path_; }

 private:
  MmapRegion region_;
  ArtifactHeader header_;
  std::string path_;
};

/// Opens `path` as a shared mapped artifact (see MappedArtifact::Open
/// for the fallback error codes).
Result<std::shared_ptr<const MappedArtifact>> OpenMappedArtifact(
    const std::string& path);

/// True when `status` means "the mapped path is unavailable here, fall
/// back to the stream reader" rather than "the artifact is bad":
/// kNotImplemented (no mmap) or kFailedPrecondition (pre-v3 artifact).
bool IsMmapFallback(const Status& status);

/// Validating reader over an artifact, with two interchangeable
/// backends: a stream (payloads copied into the section, checksums
/// always verified) or a mapped artifact (payloads borrowed in place;
/// see the header comment for the checksum policy). Load
/// implementations written against Section::payload() work identically
/// over both.
class ArtifactReader {
 public:
  struct Section {
    uint32_t id = kEndSectionId;
    /// True when payload() borrows from a mapped artifact (and may be
    /// handed out as a long-lived view together with the reader's
    /// mapped_artifact() keepalive). When false, payload() points at
    /// `owned` and is invalidated by destroying the Section.
    bool is_mapped = false;

    std::string_view payload() const {
      return is_mapped ? view_ : std::string_view(owned_);
    }

    // Backing storage; use payload() instead of touching these.
    std::string owned_;
    std::string_view view_;
  };

  /// Stream backend. The stream must be positioned at the artifact's
  /// first byte (the reader tracks offsets itself for v3 padding).
  explicit ArtifactReader(std::istream& is) : is_(&is) {}
  /// Mapped backend (zero-copy sections).
  explicit ArtifactReader(std::shared_ptr<const MappedArtifact> mapped);

  /// Validates magic + version and returns the header.
  Result<ArtifactHeader> ReadHeader();

  /// The header, reading it first if no ReadHeader call happened yet.
  Result<ArtifactHeader> Header();

  /// Reads the next section. id == kEndSectionId signals a well-formed
  /// end of artifact.
  Result<Section> ReadSection();

  /// Reads the next section and requires its id (the fixed-layout read
  /// path every Load implementation uses).
  Result<Section> ReadSectionExpect(uint32_t id);

  bool mapped() const { return mapped_ != nullptr; }
  /// Null for the stream backend.
  const std::shared_ptr<const MappedArtifact>& mapped_artifact() const {
    return mapped_;
  }

 private:
  Status GetU32(uint32_t* out, const char* what);
  Status GetU64(uint64_t* out, const char* what);
  Status SkipPadding();

  std::istream* is_ = nullptr;
  std::shared_ptr<const MappedArtifact> mapped_;
  uint64_t pos_ = 0;  // absolute offset from the artifact's first byte
  bool header_read_ = false;
  ArtifactHeader header_;
};

/// Validates header kind/tag with descriptive errors ("artifact holds a
/// dataset cache, expected a model", "model artifact holds type 6,
/// expected 7").
Status ExpectArtifact(const ArtifactHeader& header, ArtifactKind kind,
                      uint32_t type_tag);

/// Reads one more section and requires it to be the end marker — the
/// shared epilogue of every Load implementation (rejects artifacts with
/// unexpected trailing sections).
Status ExpectEndOfArtifact(ArtifactReader& r);

/// Opens `path` for binary writing (overwrites), runs `write` on the
/// stream, and verifies the close — the shared file wrapper behind
/// every SaveXxxFile entry point.
Status WriteArtifactFile(const std::string& path,
                         const std::function<Status(std::ostream&)>& write);

/// Opens `path` for binary reading and runs `read` on the stream,
/// returning whatever it returns (a Status or any Result<T>).
template <typename Fn>
auto ReadArtifactFile(const std::string& path, Fn&& read)
    -> decltype(read(std::declval<std::istream&>())) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::IOError("cannot open " + path);
  return read(is);
}

}  // namespace ganc

#endif  // GANC_UTIL_SERIALIZE_H_
