// Shared reader/writer for the GANC binary artifact format: the on-disk
// representation behind model artifacts (Recommender::Save/Load), the
// binary dataset cache (RatingDataset::SaveBinary/Load), top-N stores
// and pipeline state (GancPipeline::Save/Load).
//
// An artifact is a fixed header (magic, format version, artifact kind,
// type tag) followed by a sequence of independently checksummed
// sections and a mandatory end marker:
//
//   [magic 8B] [version u32] [kind u32] [tag u32] [reserved u32]
//   { [section id u32] [payload size u64] [pad] [payload] [FNV-1a u64] }*
//   [end marker: id 0, size 0, FNV-1a of the empty payload]
//
// Zero bytes are inserted between the size field and the payload so
// every payload starts on a 64-byte boundary (`pad = (-offset) mod 64`,
// where offset is the absolute file position after the size field; the
// end marker is never padded). Alignment is what lets every load hand
// out borrowed views straight into the artifact's bytes: offset tables,
// CSR rows, and factor tables are read in place with zero copies.
//
// There is one read path: a file (or a nested artifact) becomes an
// aligned byte span (ArtifactBytes: a mapping, a read() buffer or a
// copy), and the one ArtifactReader parses that span. All integers and
// floats are little-endian; floats are raw IEEE-754 bits, so doubles
// round-trip bit-exactly. Every read is validated: bad magic, an
// unsupported version (including the unpadded v2 layout), truncation,
// or a corrupted section surfaces as a Status error, never as garbage
// state. Checksums are verified for every section of an owned buffer;
// in a mapping only payloads up to kMappedChecksumVerifyBytes are
// hashed, since hashing a multi-GB section would fault in every page
// and defeat the out-of-core point. The normative spec lives in
// docs/FORMATS.md and must stay in sync with the constants below (CI
// greps kGancFormatVersion in both files).

#ifndef GANC_UTIL_SERIALIZE_H_
#define GANC_UTIL_SERIALIZE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/mmap_region.h"
#include "util/status.h"

namespace ganc {

/// Current on-disk format version, bumped on any incompatible layout
/// change. Writers emit and readers accept exactly this version; an
/// older artifact gets a typed error naming its version.
/// Keep docs/FORMATS.md in sync (CI greps the literal in both files).
inline constexpr uint32_t kGancFormatVersion = 3;

/// Section payloads start on this boundary from format v3 on.
inline constexpr uint64_t kSectionAlignment = 64;

/// Mapped sections are checksummed only up to this payload size; bigger
/// ones are bounds-checked but read lazily in place. Sections of owned
/// buffers are always checksummed.
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

/// Host endianness gate for the bulk memcpy/borrow fast paths. Writers
/// and the copying PayloadReader reads stay correct on big-endian hosts
/// through element-wise fallbacks; the artifact loaders borrow tables
/// in place and so need a little-endian host (BorrowVec returns
/// NotImplemented elsewhere).
inline constexpr bool kGancHostIsLittleEndian =
    std::endian::native == std::endian::little;

/// FNV-1a 64-bit hash of a byte buffer (stable across platforms): the
/// section checksum, and the basis of dataset fingerprints.
uint64_t Fnv1aHash(const void* data, size_t size);

/// Incremental FNV-1a 64: Update in any chunking yields the same digest
/// as one Fnv1aHash over the concatenation (used for checksums and
/// fingerprints that are streamed rather than buffered).
class Fnv1aHasher {
 public:
  Fnv1aHasher& Update(const void* data, size_t size);
  uint64_t digest() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

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
  /// storage (the artifact's ArtifactBytes). Requires a little-endian
  /// host and element-aligned data — misalignment is a typed error,
  /// since a v3 writer always aligns borrowable tables.
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
          "misaligned vector data in section payload");
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

/// The bytes of one whole artifact, kept alive by every view borrowed
/// from them (datasets, stores and factor tables hold a
/// shared_ptr<const ArtifactBytes> keepalive). Three sources, each with
/// the artifact's first byte on a 64-byte boundary, so v3 payload
/// alignment in the file is address alignment in memory:
///  - a read-only file mapping (Open with prefer_mmap, where the
///    platform has mmap): pages fault in on first touch;
///  - read() of the whole file into an owned aligned buffer (Open
///    otherwise);
///  - an owned aligned copy of in-memory bytes (Copy), for a nested
///    artifact and for tests.
class ArtifactBytes {
 public:
  static Result<std::shared_ptr<const ArtifactBytes>> Open(
      const std::string& path, bool prefer_mmap);
  static std::shared_ptr<const ArtifactBytes> Copy(std::string_view bytes);

  std::string_view bytes() const { return bytes_; }
  /// True for the file mapping, whose clean pages may be handed back
  /// (ReleaseMappedPages) and refault from the page cache. Owned
  /// buffers are heap memory and must never be released that way.
  bool mapped() const { return region_.valid(); }

 private:
  struct AlignedDelete {
    void operator()(char* p) const;
  };
  static std::shared_ptr<ArtifactBytes> Allocate(size_t size);

  MmapRegion region_;
  std::unique_ptr<char[], AlignedDelete> owned_;
  std::string_view bytes_;
};

/// Validating reader over an artifact's bytes. Every record is
/// bounds-checked against the source (truncation is a typed error, not
/// UB) and section payloads are views into the source, never copies.
/// Checksums: every section read from an owned buffer is verified;
/// mapped sections are verified up to kMappedChecksumVerifyBytes, and
/// bigger ones stay bounds-checked only.
class ArtifactReader {
 public:
  class Section {
   public:
    uint32_t id = kEndSectionId;
    /// Borrowed from the reader's source(): valid while a reference to
    /// the source is held.
    std::string_view payload() const { return payload_; }

   private:
    friend class ArtifactReader;
    std::string_view payload_;
  };

  /// Reads from the artifact's first byte.
  explicit ArtifactReader(std::shared_ptr<const ArtifactBytes> source)
      : source_(std::move(source)) {}

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

  /// The bytes every section payload views; loaders that keep borrowed
  /// views hold this as their keepalive.
  const std::shared_ptr<const ArtifactBytes>& source() const {
    return source_;
  }

 private:
  Status GetU32(uint32_t* out, const char* what);
  Status GetU64(uint64_t* out, const char* what);
  Status SkipPadding();

  std::shared_ptr<const ArtifactBytes> source_;
  uint64_t pos_ = 0;  // offset from the artifact's first byte
  bool header_read_ = false;
  ArtifactHeader header_;
};

/// ArtifactBytes::Open(path, prefer_mmap) wrapped in a reader: the
/// shared entry of every path-based loader.
Result<ArtifactReader> OpenArtifact(const std::string& path,
                                    bool prefer_mmap);

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

}  // namespace ganc

#endif  // GANC_UTIL_SERIALIZE_H_
