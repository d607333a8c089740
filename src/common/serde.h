// Versioned, checksummed binary serialization primitives.
//
// Format contract used by every persistent artifact in the repo (indexes,
// cache snapshots):
//   [magic u32] [version u32] [payload ...] [checksum u64]
// The checksum is FNV-1a over every payload byte, computed incrementally
// by the writer and verified by the reader, so truncated or corrupted
// files fail loudly instead of deserializing garbage.
//
// All integers are little-endian (the only supported build targets are
// little-endian; a static_assert enforces it).
#pragma once

#include <bit>
#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "vecmath/matrix.h"

namespace proximity {

static_assert(std::endian::native == std::endian::little,
              "serde assumes a little-endian target");

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& os) : os_(os) {}

  void WriteU32(std::uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(std::uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(std::int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteF32(float v) { WriteRaw(&v, sizeof(v)); }
  void WriteF64(double v) { WriteRaw(&v, sizeof(v)); }

  void WriteString(const std::string& s);
  void WriteFloats(std::span<const float> v);
  void WriteU8s(std::span<const std::uint8_t> v);
  void WriteI64s(std::span<const std::int64_t> v);
  void WriteU32s(std::span<const std::uint32_t> v);
  void WriteU64s(std::span<const std::uint64_t> v);

  /// Emits the running checksum trailer. Call exactly once, last.
  void Finish();

  std::uint64_t checksum() const noexcept { return checksum_; }

 private:
  void WriteRaw(const void* data, std::size_t size);

  std::ostream& os_;
  std::uint64_t checksum_ = 1469598103934665603ULL;  // FNV offset basis
};

class BinaryReader {
 public:
  explicit BinaryReader(std::istream& is) : is_(is) {}

  std::uint32_t ReadU32();
  std::uint64_t ReadU64();
  std::int64_t ReadI64();
  float ReadF32();
  double ReadF64();

  std::string ReadString(std::size_t max_size = 1 << 20);
  std::vector<float> ReadFloats(std::size_t max_count = 1u << 30);
  std::vector<std::uint8_t> ReadU8s(std::size_t max_count = 1u << 30);
  std::vector<std::int64_t> ReadI64s(std::size_t max_count = 1u << 28);
  std::vector<std::uint32_t> ReadU32s(std::size_t max_count = 1u << 28);
  std::vector<std::uint64_t> ReadU64s(std::size_t max_count = 1u << 27);

  /// Reads the trailer and throws std::runtime_error if the stream's
  /// checksum does not match the bytes read so far.
  void VerifyChecksum();

 private:
  void ReadRaw(void* data, std::size_t size);

  std::istream& is_;
  std::uint64_t checksum_ = 1469598103934665603ULL;
};

/// Writes "[magic][version]".
void WriteHeader(BinaryWriter& w, std::uint32_t magic, std::uint32_t version);

/// Reads and validates the header; returns the stored version. Throws
/// std::runtime_error on a magic mismatch or version > max_version.
std::uint32_t ReadHeader(BinaryReader& r, std::uint32_t expected_magic,
                         std::uint32_t max_version);

/// Reads an enum stored as u32, rejecting values past `last`: the
/// checksum proves the bytes arrived intact, not that this build knows
/// the value they hold. Throws std::runtime_error.
template <typename Enum>
Enum ReadEnum(BinaryReader& r, Enum last) {
  const std::uint32_t raw = r.ReadU32();
  if (raw > static_cast<std::uint32_t>(last)) {
    throw std::runtime_error("serde: enum value " + std::to_string(raw) +
                             " out of range");
  }
  return static_cast<Enum>(raw);
}

void WriteMatrix(BinaryWriter& w, const Matrix& m);
Matrix ReadMatrix(BinaryReader& r);

}  // namespace proximity
