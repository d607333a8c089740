// Index persistence: magic tags and type-dispatching load.
//
// Every serializable index implements SaveTo (and a static LoadFrom);
// LoadIndex() peeks the magic tag and reconstructs the right type, the
// way faiss's read_index does.
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <string>

#include "index/vector_index.h"

namespace proximity {

namespace io_magic {
// 'P' 'x' 'y' 'z' little-endian tags, one per persistent artifact.
inline constexpr std::uint32_t kFlatIndex = 0x544c4650;   // "PFLT"
inline constexpr std::uint32_t kHnswIndex = 0x574e4850;   // "PHNW"
inline constexpr std::uint32_t kIvfFlat = 0x46564950;     // "PIVF"
inline constexpr std::uint32_t kCache = 0x48434350;       // "PCCH"
inline constexpr std::uint32_t kMutableIndex = 0x54554d50;  // "PMUT"
// Retired artifacts: kept only so LoadIndex can name them in its error.
inline constexpr std::uint32_t kRetiredPq = 0x58515050;     // "PPQX"
inline constexpr std::uint32_t kRetiredIvfPq = 0x51504950;  // "PIPQ"
}  // namespace io_magic

/// Reconstructs an index saved with VectorIndex::SaveTo. Dispatches on the
/// leading magic tag. Throws std::runtime_error on unknown, retired or
/// corrupt input.
std::unique_ptr<VectorIndex> LoadIndex(std::istream& is);

/// File-path conveniences (binary mode, whole-file).
void SaveIndexToFile(const VectorIndex& index, const std::string& path);
std::unique_ptr<VectorIndex> LoadIndexFromFile(const std::string& path);

}  // namespace proximity
