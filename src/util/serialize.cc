#include "util/serialize.h"

#include <algorithm>

#include "util/binary_io.h"

namespace ganc {

namespace {

template <typename T, typename WriteOne>
void WriteVecGeneric(PayloadWriter* w, const std::vector<T>& v,
                     WriteOne&& write_one) {
  w->WriteU64(static_cast<uint64_t>(v.size()));
  if constexpr (kGancHostIsLittleEndian) {
    w->WriteBytes(v.data(), v.size() * sizeof(T));
  } else {
    for (const T& x : v) write_one(x);
  }
}

uint64_t PaddingFor(uint64_t offset) {
  return (kSectionAlignment - offset % kSectionAlignment) % kSectionAlignment;
}

}  // namespace

void PayloadWriter::WriteU32(uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
  buf_.append(b, sizeof(b));
}

void PayloadWriter::WriteU64(uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
  buf_.append(b, sizeof(b));
}

void PayloadWriter::WriteF32(float v) { WriteU32(std::bit_cast<uint32_t>(v)); }

void PayloadWriter::WriteF64(double v) { WriteU64(std::bit_cast<uint64_t>(v)); }

void PayloadWriter::WriteBytes(const void* data, size_t size) {
  buf_.append(static_cast<const char*>(data), size);
}

void PayloadWriter::WriteString(std::string_view s) {
  WriteU64(static_cast<uint64_t>(s.size()));
  buf_.append(s.data(), s.size());
}

void PayloadWriter::AlignTo(size_t alignment) {
  buf_.append((alignment - buf_.size() % alignment) % alignment, '\0');
}

void PayloadWriter::WriteVecF64(const std::vector<double>& v) {
  WriteVecGeneric(this, v, [this](double x) { WriteF64(x); });
}

void PayloadWriter::WriteVecF32(const std::vector<float>& v) {
  WriteVecGeneric(this, v, [this](float x) { WriteF32(x); });
}

void PayloadWriter::WriteVecI32(const std::vector<int32_t>& v) {
  WriteVecGeneric(this, v, [this](int32_t x) { WriteI32(x); });
}

void PayloadWriter::WriteVecU64(const std::vector<uint64_t>& v) {
  WriteVecGeneric(this, v, [this](uint64_t x) { WriteU64(x); });
}

void PayloadWriter::WriteVecI8(const std::vector<int8_t>& v) {
  WriteU64(v.size());
  WriteBytes(v.data(), v.size());  // single bytes: no endianness
}

Status PayloadReader::Require(size_t n) const {
  // Compare against the remaining bytes (never pos_ + n, which can wrap
  // for forged 64-bit lengths).
  if (n > bytes_.size() - pos_) {
    return Status::InvalidArgument("section payload underrun");
  }
  return Status::OK();
}

Status PayloadReader::ReadU8(uint8_t* out) {
  GANC_RETURN_NOT_OK(Require(1));
  *out = static_cast<uint8_t>(bytes_[pos_++]);
  return Status::OK();
}

Status PayloadReader::ReadU32(uint32_t* out) {
  GANC_RETURN_NOT_OK(Require(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return Status::OK();
}

Status PayloadReader::ReadU64(uint64_t* out) {
  GANC_RETURN_NOT_OK(Require(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  *out = v;
  return Status::OK();
}

Status PayloadReader::ReadI32(int32_t* out) {
  uint32_t v = 0;
  GANC_RETURN_NOT_OK(ReadU32(&v));
  *out = static_cast<int32_t>(v);
  return Status::OK();
}

Status PayloadReader::ReadI64(int64_t* out) {
  uint64_t v = 0;
  GANC_RETURN_NOT_OK(ReadU64(&v));
  *out = static_cast<int64_t>(v);
  return Status::OK();
}

Status PayloadReader::ReadF32(float* out) {
  uint32_t v = 0;
  GANC_RETURN_NOT_OK(ReadU32(&v));
  *out = std::bit_cast<float>(v);
  return Status::OK();
}

Status PayloadReader::ReadF64(double* out) {
  uint64_t v = 0;
  GANC_RETURN_NOT_OK(ReadU64(&v));
  *out = std::bit_cast<double>(v);
  return Status::OK();
}

Status PayloadReader::ReadString(std::string* out) {
  uint64_t len = 0;
  GANC_RETURN_NOT_OK(ReadU64(&len));
  GANC_RETURN_NOT_OK(Require(len));
  out->assign(bytes_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

Status PayloadReader::SkipAlign(size_t alignment) {
  const size_t pad = (alignment - pos_ % alignment) % alignment;
  GANC_RETURN_NOT_OK(Require(pad));
  for (size_t i = 0; i < pad; ++i) {
    if (bytes_[pos_ + i] != '\0') {
      return Status::InvalidArgument("nonzero padding in section payload");
    }
  }
  pos_ += pad;
  return Status::OK();
}

template <typename T, typename ReadOne>
Status PayloadReader::ReadVec(std::vector<T>* out, ReadOne&& read_one) {
  uint64_t count = 0;
  GANC_RETURN_NOT_OK(ReadU64(&count));
  if (count > remaining() / sizeof(T)) {  // divide: no u64 wrap
    return Status::InvalidArgument("vector length exceeds section payload");
  }
  out->resize(count);
  if (count == 0) return Status::OK();
  if constexpr (kGancHostIsLittleEndian || sizeof(T) == 1) {
    std::memcpy(out->data(), bytes_.data() + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return Status::OK();
  }
  for (T& x : *out) GANC_RETURN_NOT_OK(read_one(&x));
  return Status::OK();
}

Status PayloadReader::ReadVecF64(std::vector<double>* out) {
  return ReadVec(out, [this](double* x) { return ReadF64(x); });
}

Status PayloadReader::ReadVecF32(std::vector<float>* out) {
  return ReadVec(out, [this](float* x) { return ReadF32(x); });
}

Status PayloadReader::ReadVecI32(std::vector<int32_t>* out) {
  return ReadVec(out, [this](int32_t* x) { return ReadI32(x); });
}

Status PayloadReader::ReadVecU64(std::vector<uint64_t>* out) {
  return ReadVec(out, [this](uint64_t* x) { return ReadU64(x); });
}

Status PayloadReader::ReadVecI8(std::vector<int8_t>* out) {
  // Single bytes always take ReadVec's memcpy path; nothing to decode.
  return ReadVec(out, [](int8_t*) { return Status::OK(); });
}

Status PayloadReader::ExpectEnd() const {
  if (!AtEnd()) {
    return Status::InvalidArgument("trailing bytes in section payload");
  }
  return Status::OK();
}

namespace {

void PutU32(std::ostream& os, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
  os.write(b, sizeof(b));
}

void PutU64(std::ostream& os, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
  os.write(b, sizeof(b));
}

uint32_t DecodeU32(const char* b) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(b[i])) << (8 * i);
  }
  return v;
}

uint64_t DecodeU64(const char* b) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(b[i])) << (8 * i);
  }
  return v;
}

constexpr size_t kHeaderBytes = 24;

// Parses and validates the fixed 24-byte header. Accepts every version
// the stream reader supports; mapped-specific restrictions are layered
// on in MappedArtifact::Open.
Result<ArtifactHeader> ParseHeaderBytes(const char* b) {
  if (std::memcmp(b, kGancArtifactMagic, sizeof(kGancArtifactMagic)) != 0) {
    return Status::InvalidArgument("bad artifact magic (not a GANC artifact)");
  }
  ArtifactHeader header;
  header.version = DecodeU32(b + 8);
  if (header.version < kMinSupportedReadVersion ||
      header.version > kGancFormatVersion) {
    return Status::InvalidArgument(
        "unsupported artifact format version " +
        std::to_string(header.version) + " (this build reads versions " +
        std::to_string(kMinSupportedReadVersion) + ".." +
        std::to_string(kGancFormatVersion) + ")");
  }
  header.kind = DecodeU32(b + 12);
  header.type_tag = DecodeU32(b + 16);
  // Reserved-must-be-zero keeps the field usable for future flags (old
  // readers reject artifacts that set bits they do not understand).
  if (DecodeU32(b + 20) != 0) {
    return Status::InvalidArgument("reserved artifact header field not zero");
  }
  return header;
}

}  // namespace

Status ArtifactWriter::WriteHeader(ArtifactKind kind, uint32_t type_tag) {
  os_.write(kGancArtifactMagic, sizeof(kGancArtifactMagic));
  PutU32(os_, kGancFormatVersion);
  PutU32(os_, static_cast<uint32_t>(kind));
  PutU32(os_, type_tag);
  PutU32(os_, 0);  // reserved
  if (!os_) return Status::IOError("artifact header write failed");
  pos_ = kHeaderBytes;
  return Status::OK();
}

Status ArtifactWriter::WriteSectionPrefix(uint32_t id, uint64_t size) {
  PutU32(os_, id);
  PutU64(os_, size);
  pos_ += 12;
  const uint64_t pad = PaddingFor(pos_);
  if (pad > 0) {
    static constexpr char kZeros[kSectionAlignment] = {};
    os_.write(kZeros, static_cast<std::streamsize>(pad));
    pos_ += pad;
  }
  if (!os_) return Status::IOError("artifact section write failed");
  return Status::OK();
}

Status ArtifactWriter::WriteSection(uint32_t id, const PayloadWriter& payload) {
  if (id == kEndSectionId) {
    return Status::InvalidArgument("section id 0 is reserved for the end marker");
  }
  if (in_section_) {
    return Status::FailedPrecondition("streaming section still open");
  }
  const std::string& buf = payload.buffer();
  GANC_RETURN_NOT_OK(WriteSectionPrefix(id, buf.size()));
  os_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  PutU64(os_, Fnv1aHash(buf.data(), buf.size()));
  pos_ += buf.size() + 8;
  if (!os_) return Status::IOError("artifact section write failed");
  return Status::OK();
}

Status ArtifactWriter::BeginSection(uint32_t id, uint64_t size) {
  if (id == kEndSectionId) {
    return Status::InvalidArgument("section id 0 is reserved for the end marker");
  }
  if (in_section_) {
    return Status::FailedPrecondition("streaming section still open");
  }
  if (size > kMaxSectionBytes) {
    return Status::InvalidArgument("implausible section size");
  }
  GANC_RETURN_NOT_OK(WriteSectionPrefix(id, size));
  in_section_ = true;
  declared_ = size;
  appended_ = 0;
  hasher_ = Fnv1aHasher();
  return Status::OK();
}

Status ArtifactWriter::AppendSectionBytes(const void* data, size_t size) {
  if (!in_section_) {
    return Status::FailedPrecondition("no streaming section open");
  }
  if (appended_ + size > declared_) {
    return Status::InvalidArgument("streaming section overflows declared size");
  }
  os_.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(size));
  if (!os_) return Status::IOError("artifact section write failed");
  hasher_.Update(data, size);
  appended_ += size;
  pos_ += size;
  return Status::OK();
}

Status ArtifactWriter::EndSection() {
  if (!in_section_) {
    return Status::FailedPrecondition("no streaming section open");
  }
  if (appended_ != declared_) {
    return Status::InvalidArgument("streaming section size mismatch");
  }
  PutU64(os_, hasher_.digest());
  pos_ += 8;
  in_section_ = false;
  if (!os_) return Status::IOError("artifact section write failed");
  return Status::OK();
}

Status ArtifactWriter::Finish() {
  if (in_section_) {
    return Status::FailedPrecondition("streaming section still open");
  }
  PutU32(os_, kEndSectionId);
  PutU64(os_, 0);
  PutU64(os_, Fnv1aHash(nullptr, 0));
  pos_ += 20;
  os_.flush();
  if (!os_) return Status::IOError("artifact end marker write failed");
  return Status::OK();
}

Result<MappedArtifact> MappedArtifact::Open(const std::string& path) {
  Result<MmapRegion> region = MmapRegion::Map(path);
  if (!region.ok()) return region.status();
  MappedArtifact artifact;
  artifact.region_ = std::move(region).value();
  artifact.path_ = path;
  if (artifact.region_.size() < kHeaderBytes) {
    return Status::IOError("truncated artifact: magic");
  }
  Result<ArtifactHeader> header = ParseHeaderBytes(artifact.region_.data());
  if (!header.ok()) return header.status();
  if (header->version < 3) {
    // Pre-v3 artifacts carry no alignment guarantee; the caller falls
    // back to the (still fully supported) stream reader.
    return Status::FailedPrecondition(
        "artifact format version " + std::to_string(header->version) +
        " predates the mmap path; use the stream reader");
  }
  artifact.header_ = *header;
  return artifact;
}

Result<std::shared_ptr<const MappedArtifact>> OpenMappedArtifact(
    const std::string& path) {
  Result<MappedArtifact> artifact = MappedArtifact::Open(path);
  if (!artifact.ok()) return artifact.status();
  return std::shared_ptr<const MappedArtifact>(
      std::make_shared<MappedArtifact>(std::move(artifact).value()));
}

bool IsMmapFallback(const Status& status) {
  return status.code() == StatusCode::kNotImplemented ||
         status.code() == StatusCode::kFailedPrecondition;
}

ArtifactReader::ArtifactReader(std::shared_ptr<const MappedArtifact> mapped)
    : mapped_(std::move(mapped)) {}

Status ArtifactReader::GetU32(uint32_t* out, const char* what) {
  if (mapped_ != nullptr) {
    const std::string_view bytes = mapped_->bytes();
    if (4 > bytes.size() - pos_) {
      return Status::IOError(std::string("truncated artifact: ") + what);
    }
    *out = DecodeU32(bytes.data() + pos_);
    pos_ += 4;
    return Status::OK();
  }
  char b[4];
  is_->read(b, sizeof(b));
  if (!*is_) return Status::IOError(std::string("truncated artifact: ") + what);
  *out = DecodeU32(b);
  pos_ += 4;
  return Status::OK();
}

Status ArtifactReader::GetU64(uint64_t* out, const char* what) {
  if (mapped_ != nullptr) {
    const std::string_view bytes = mapped_->bytes();
    if (8 > bytes.size() - pos_) {
      return Status::IOError(std::string("truncated artifact: ") + what);
    }
    *out = DecodeU64(bytes.data() + pos_);
    pos_ += 8;
    return Status::OK();
  }
  char b[8];
  is_->read(b, sizeof(b));
  if (!*is_) return Status::IOError(std::string("truncated artifact: ") + what);
  *out = DecodeU64(b);
  pos_ += 8;
  return Status::OK();
}

Result<ArtifactHeader> ArtifactReader::ReadHeader() {
  if (mapped_ != nullptr) {
    // MappedArtifact::Open already validated the header.
    header_ = mapped_->header();
    header_read_ = true;
    pos_ = kHeaderBytes;
    return header_;
  }
  char b[kHeaderBytes];
  is_->read(b, sizeof(b));
  if (!*is_) return Status::IOError("truncated artifact: magic");
  Result<ArtifactHeader> header = ParseHeaderBytes(b);
  if (!header.ok()) return header.status();
  header_ = *header;
  header_read_ = true;
  pos_ += kHeaderBytes;
  return header_;
}

Result<ArtifactHeader> ArtifactReader::Header() {
  if (header_read_) return header_;
  return ReadHeader();
}

Status ArtifactReader::SkipPadding() {
  if (header_.version < 3) return Status::OK();
  const uint64_t pad = PaddingFor(pos_);
  if (pad == 0) return Status::OK();
  if (mapped_ != nullptr) {
    const std::string_view bytes = mapped_->bytes();
    if (pad > bytes.size() - pos_) {
      return Status::IOError("truncated artifact: section padding");
    }
    for (uint64_t i = 0; i < pad; ++i) {
      if (bytes[pos_ + i] != '\0') {
        return Status::InvalidArgument("nonzero section padding");
      }
    }
    pos_ += pad;
    return Status::OK();
  }
  char b[kSectionAlignment];
  is_->read(b, static_cast<std::streamsize>(pad));
  if (!*is_) return Status::IOError("truncated artifact: section padding");
  for (uint64_t i = 0; i < pad; ++i) {
    if (b[i] != '\0') {
      return Status::InvalidArgument("nonzero section padding");
    }
  }
  pos_ += pad;
  return Status::OK();
}

Result<ArtifactReader::Section> ArtifactReader::ReadSection() {
  if (!header_read_) {
    return Status::FailedPrecondition(
        "artifact header must be read before sections");
  }
  Section section;
  section.is_mapped = mapped_ != nullptr;
  GANC_RETURN_NOT_OK(GetU32(&section.id, "section id"));
  uint64_t size = 0;
  GANC_RETURN_NOT_OK(GetU64(&size, "section size"));
  if (section.id == kEndSectionId && size != 0) {
    return Status::InvalidArgument("end marker with non-zero payload");
  }
  if (size > kMaxSectionBytes) {
    return Status::InvalidArgument("implausible section size");
  }
  // The end marker is never padded (there is no payload to align).
  if (section.id != kEndSectionId) {
    GANC_RETURN_NOT_OK(SkipPadding());
  }
  if (mapped_ != nullptr) {
    const std::string_view bytes = mapped_->bytes();
    if (size > bytes.size() - pos_) {
      return Status::IOError("truncated artifact: section payload");
    }
    section.view_ = bytes.substr(pos_, size);
    pos_ += size;
    uint64_t checksum = 0;
    GANC_RETURN_NOT_OK(GetU64(&checksum, "section checksum"));
    // Out-of-core policy: hashing a huge mapped payload would fault in
    // every page up front, so only small sections (metadata, offsets)
    // are verified here. Bulk sections stay bounds-checked; the stream
    // reader remains the fully validating path.
    if (size <= kMappedChecksumVerifyBytes &&
        checksum != Fnv1aHash(section.view_.data(), section.view_.size())) {
      return Status::InvalidArgument(
          "section " + std::to_string(section.id) + " checksum mismatch");
    }
    return section;
  }
  // Read in bounded chunks so a truncated file with a forged huge size
  // fails after one short read instead of allocating the claimed size
  // up front.
  constexpr uint64_t kReadChunk = 1 << 20;
  section.owned_.reserve(
      static_cast<size_t>(std::min<uint64_t>(size, kReadChunk)));
  std::string chunk;
  for (uint64_t left = size; left > 0;) {
    const size_t n = static_cast<size_t>(std::min(left, kReadChunk));
    chunk.resize(n);
    is_->read(chunk.data(), static_cast<std::streamsize>(n));
    if (!*is_) return Status::IOError("truncated artifact: section payload");
    section.owned_.append(chunk, 0, n);
    left -= n;
  }
  pos_ += size;
  uint64_t checksum = 0;
  GANC_RETURN_NOT_OK(GetU64(&checksum, "section checksum"));
  if (checksum != Fnv1aHash(section.owned_.data(), section.owned_.size())) {
    return Status::InvalidArgument(
        "section " + std::to_string(section.id) + " checksum mismatch");
  }
  return section;
}

Result<ArtifactReader::Section> ArtifactReader::ReadSectionExpect(uint32_t id) {
  Result<Section> section = ReadSection();
  if (!section.ok()) return section.status();
  if (section->id != id) {
    return Status::InvalidArgument("expected artifact section " +
                                   std::to_string(id) + ", found " +
                                   std::to_string(section->id));
  }
  return section;
}

Status WriteArtifactFile(const std::string& path,
                         const std::function<Status(std::ostream&)>& write) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return Status::IOError("cannot open " + path + " for writing");
  GANC_RETURN_NOT_OK(write(os));
  os.close();
  if (!os) return Status::IOError("write failed for " + path);
  return Status::OK();
}

Status ExpectEndOfArtifact(ArtifactReader& r) {
  Result<ArtifactReader::Section> section = r.ReadSection();
  if (!section.ok()) return section.status();
  if (section->id != kEndSectionId) {
    return Status::InvalidArgument("unexpected extra artifact section " +
                                   std::to_string(section->id));
  }
  return Status::OK();
}

Status ExpectArtifact(const ArtifactHeader& header, ArtifactKind kind,
                      uint32_t type_tag) {
  if (header.kind != static_cast<uint32_t>(kind)) {
    return Status::InvalidArgument(
        "artifact kind mismatch: file holds kind " +
        std::to_string(header.kind) + ", expected " +
        std::to_string(static_cast<uint32_t>(kind)));
  }
  if (header.type_tag != type_tag) {
    return Status::InvalidArgument(
        "artifact type mismatch: file holds type " +
        std::to_string(header.type_tag) + ", expected " +
        std::to_string(type_tag));
  }
  return Status::OK();
}

}  // namespace ganc
