// CompressedStore implementation: per-vector affine encoding and the
// prefetched block scan loops. The quantized kernels the loops call come
// from the active KernelTable, the same table the float kernels of
// kernels.h dispatch through (kernel_table.h).
#include "vecmath/compressed_store.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "vecmath/kernel_table.h"
#include "vecmath/kernels.h"

namespace proximity {

namespace {

struct BlockHeader {
  float scale;
  float bias;
  float sqnorm;
  std::uint32_t reserved;
};
static_assert(sizeof(BlockHeader) == CompressedStore::kHeaderBytes);

inline BlockHeader ReadBlockHeader(const std::uint8_t* block) noexcept {
  BlockHeader h;
  std::memcpy(&h, block, sizeof h);
  return h;
}

/// Prefetches every cache line of one block (blocks are 64-aligned in
/// stride, so `stride / 64` lines cover it exactly).
inline void PrefetchBlock(const std::uint8_t* block,
                          std::size_t stride) noexcept {
  for (std::size_t off = 0; off < stride; off += 64) {
    __builtin_prefetch(block + off, 0, 3);
  }
}

}  // namespace

std::string_view StorageLayoutName(StorageLayout layout) noexcept {
  switch (layout) {
    case StorageLayout::kFloat32:
      return "float32";
    case StorageLayout::kSq8:
      return "sq8";
    case StorageLayout::kSq4:
      return "sq4";
  }
  return "?";
}

bool ParseStorageLayout(std::string_view name, StorageLayout* out) noexcept {
  for (StorageLayout layout : {StorageLayout::kFloat32, StorageLayout::kSq8,
                               StorageLayout::kSq4}) {
    if (name == StorageLayoutName(layout)) {
      *out = layout;
      return true;
    }
  }
  return false;
}

CompressedStore::CompressedStore(std::size_t dim, StorageLayout layout)
    : dim_(dim), layout_(layout) {
  if (dim == 0) {
    throw std::invalid_argument("CompressedStore: dim must be > 0");
  }
  if (layout != StorageLayout::kSq8 && layout != StorageLayout::kSq4) {
    throw std::invalid_argument(
        "CompressedStore: layout must be sq8 or sq4 (float32 rows live in "
        "Matrix)");
  }
  code_bytes_ = layout == StorageLayout::kSq8 ? dim : (dim + 1) / 2;
  stride_ = (kHeaderBytes + code_bytes_ + kBlockAlign - 1) / kBlockAlign *
            kBlockAlign;
}

void CompressedStore::AppendRow(std::span<const float> vec) {
  if (dim_ == 0) {
    throw std::logic_error("CompressedStore::AppendRow: store has no dim");
  }
  if (vec.size() != dim_) {
    throw std::invalid_argument(
        "CompressedStore::AppendRow: dimension mismatch");
  }
  float lo = vec[0], hi = vec[0];
  for (const float x : vec) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  const float qmax = layout_ == StorageLayout::kSq4 ? 15.f : 255.f;
  const float range = hi - lo;
  BlockHeader h;
  h.scale = range > 0.f ? range / qmax : 0.f;
  h.bias = lo;
  h.sqnorm = SquaredNorm(vec);
  h.reserved = 0;
  const float inv = range > 0.f ? qmax / range : 0.f;
  const auto quantize = [&](float x) noexcept {
    const float c = (x - lo) * inv + 0.5f;
    return static_cast<std::uint8_t>(std::min(c, qmax));
  };

  data_.resize(data_.size() + stride_, 0);
  std::uint8_t* block = data_.data() + rows_ * stride_;
  std::memcpy(block, &h, sizeof h);
  std::uint8_t* codes = block + kHeaderBytes;
  if (layout_ == StorageLayout::kSq8) {
    for (std::size_t j = 0; j < dim_; ++j) codes[j] = quantize(vec[j]);
  } else {
    const std::size_t half = (dim_ + 1) / 2;
    for (std::size_t j = 0; j < half; ++j) {
      const std::uint8_t c_lo = quantize(vec[j]);
      const std::uint8_t c_hi =
          j + half < dim_ ? quantize(vec[j + half]) : std::uint8_t{0};
      codes[j] = static_cast<std::uint8_t>(c_lo | (c_hi << 4));
    }
  }
  ++rows_;
}

float CompressedStore::RowScale(std::size_t r) const noexcept {
  assert(r < rows_);
  return ReadBlockHeader(Block(r)).scale;
}

float CompressedStore::RowBias(std::size_t r) const noexcept {
  assert(r < rows_);
  return ReadBlockHeader(Block(r)).bias;
}

float CompressedStore::RowSqNorm(std::size_t r) const noexcept {
  assert(r < rows_);
  return ReadBlockHeader(Block(r)).sqnorm;
}

void CompressedStore::DecodeRow(std::size_t r, std::span<float> out) const {
  if (r >= rows_ || out.size() != dim_) {
    throw std::invalid_argument("CompressedStore::DecodeRow: bad row/size");
  }
  const std::uint8_t* block = Block(r);
  const BlockHeader h = ReadBlockHeader(block);
  const std::uint8_t* codes = block + kHeaderBytes;
  if (layout_ == StorageLayout::kSq8) {
    for (std::size_t j = 0; j < dim_; ++j) {
      out[j] = std::fmaf(h.scale, static_cast<float>(codes[j]), h.bias);
    }
  } else {
    const std::size_t half = (dim_ + 1) / 2;
    for (std::size_t j = 0; j < half; ++j) {
      out[j] = std::fmaf(h.scale, static_cast<float>(codes[j] & 0x0F), h.bias);
      if (j + half < dim_) {
        out[j + half] =
            std::fmaf(h.scale, static_cast<float>(codes[j] >> 4), h.bias);
      }
    }
  }
}

void CompressedStore::ScanRange(Metric metric, std::span<const float> query,
                                std::size_t row_lo, std::size_t count,
                                float* out) const {
  assert(query.size() == dim_);
  assert(row_lo + count <= rows_);
  const detail::KernelTable* t = detail::ActiveKernelTable();
  const bool u4 = layout_ == StorageLayout::kSq4;
  const auto l2 = u4 ? t->l2_u4 : t->l2_u8;
  const auto ip = u4 ? t->ip_u4 : t->ip_u8;
  const float* q = query.data();
  float qnorm = 0.f;
  if (metric == Metric::kCosine) {
    qnorm = detail::internal::SqrtNonNeg(SquaredNorm(query));
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t* block = Block(row_lo + i);
    if (i + kPrefetchRowsAhead < count) {
      PrefetchBlock(block + kPrefetchRowsAhead * stride_, stride_);
    }
    const BlockHeader h = ReadBlockHeader(block);
    const std::uint8_t* codes = block + kHeaderBytes;
    switch (metric) {
      case Metric::kL2:
        out[i] = l2(q, codes, dim_, h.scale, h.bias);
        break;
      case Metric::kInnerProduct:
        out[i] = -ip(q, codes, dim_, h.scale, h.bias);
        break;
      case Metric::kCosine:
        out[i] = detail::internal::FinishCosine(
            ip(q, codes, dim_, h.scale, h.bias), qnorm, h.sqnorm);
        break;
    }
  }
}

void CompressedStore::GatherScan(Metric metric, std::span<const float> query,
                                 const std::uint32_t* ids, std::size_t count,
                                 float* out) const {
  assert(query.size() == dim_);
  const detail::KernelTable* t = detail::ActiveKernelTable();
  const bool u4 = layout_ == StorageLayout::kSq4;
  const auto l2 = u4 ? t->l2_u4 : t->l2_u8;
  const auto ip = u4 ? t->ip_u4 : t->ip_u8;
  const float* q = query.data();
  float qnorm = 0.f;
  if (metric == Metric::kCosine) {
    qnorm = detail::internal::SqrtNonNeg(SquaredNorm(query));
  }
  for (std::size_t j = 0; j < count; ++j) {
    if (j + 1 < count) PrefetchBlock(Block(ids[j + 1]), stride_);
    const std::uint8_t* block = Block(ids[j]);
    const BlockHeader h = ReadBlockHeader(block);
    const std::uint8_t* codes = block + kHeaderBytes;
    switch (metric) {
      case Metric::kL2:
        out[j] = l2(q, codes, dim_, h.scale, h.bias);
        break;
      case Metric::kInnerProduct:
        out[j] = -ip(q, codes, dim_, h.scale, h.bias);
        break;
      case Metric::kCosine:
        out[j] = detail::internal::FinishCosine(
            ip(q, codes, dim_, h.scale, h.bias), qnorm, h.sqnorm);
        break;
    }
  }
}

float CompressedStore::RowDistance(Metric metric, std::span<const float> query,
                                   std::size_t r) const {
  float out = 0.f;
  ScanRange(metric, query, r, 1, &out);
  return out;
}

}  // namespace proximity
