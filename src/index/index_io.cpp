#include "index/index_io.h"

#include <fstream>
#include <stdexcept>

#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "index/ivf_flat_index.h"
#include "index/mutable_index.h"

namespace proximity {

std::unique_ptr<VectorIndex> LoadIndex(std::istream& is) {
  // Peek the magic without consuming it; each LoadFrom re-reads the full
  // header so its checksum covers every byte.
  std::uint32_t magic = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (static_cast<std::size_t>(is.gcount()) != sizeof(magic)) {
    throw std::runtime_error("LoadIndex: stream too short");
  }
  is.seekg(-static_cast<std::streamoff>(sizeof(magic)), std::ios::cur);

  switch (magic) {
    case io_magic::kFlatIndex:
      return std::make_unique<FlatIndex>(FlatIndex::LoadFrom(is));
    case io_magic::kHnswIndex:
      return HnswIndex::LoadFrom(is);
    case io_magic::kIvfFlat:
      return std::make_unique<IvfFlatIndex>(IvfFlatIndex::LoadFrom(is));
    case io_magic::kMutableIndex:
      return MutableGraphIndex::LoadFrom(is);
    case io_magic::kRetiredIvfPq:
      throw std::runtime_error(
          "LoadIndex: ivf_pq snapshots are retired; rebuild as ivf_flat "
          "with storage=sq8 or sq4");
    case io_magic::kRetiredPq:
      throw std::runtime_error(
          "LoadIndex: pq snapshots are retired; use storage=sq8 or sq4");
    default:
      throw std::runtime_error("LoadIndex: unknown magic tag");
  }
}

void SaveIndexToFile(const VectorIndex& index, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("SaveIndexToFile: cannot open " + path);
  index.SaveTo(os);
}

std::unique_ptr<VectorIndex> LoadIndexFromFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("LoadIndexFromFile: cannot open " + path);
  return LoadIndex(is);
}

}  // namespace proximity
