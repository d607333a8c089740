// Cache-line-blocked scalar-quantized vector storage: the compressed
// primary representation of the two-level (scan compressed, rerank
// float) search path from Intel SVS/LVQ, DESIGN.md §11.
//
// Each stored vector is one contiguous block:
//
//   [scale f32][bias f32][sqnorm f32][reserved u32][codes ...][pad]
//   `-------------- 16-byte header --------------'
//
// padded so the block stride is a multiple of 64 bytes — a block never
// shares a cache line with its neighbors, and the scan loop can issue
// whole-block software prefetches a fixed number of blocks ahead.
// Codes are per-vector affine scalar quantization (x̂ = bias + scale*c):
// 8-bit (one byte per dimension) or 4-bit (half-split nibble layout,
// see kernel_table.h). `sqnorm` is the float row's squared L2
// norm, so cosine needs only one fused code pass plus the shared
// FinishCosine epilogue.
//
// Encoding is deterministic from the float data (no RNG, no training),
// which is what lets index serialization re-derive the codes on load
// instead of persisting them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "vecmath/metric.h"

namespace proximity {

/// Primary-scan storage layouts, in factory/config `storage=` order.
enum class StorageLayout : std::uint8_t {
  kFloat32 = 0,  // uncompressed rows, the classic exact scan
  kSq8 = 1,      // 8-bit scalar quantization, per-vector scale/bias
  kSq4 = 2,      // 4-bit scalar quantization, per-vector scale/bias
};

/// Name used in Describe(), configs, and the CLI `storage=` knob.
std::string_view StorageLayoutName(StorageLayout layout) noexcept;

/// Parses "float32" / "sq8" / "sq4"; returns false on anything else.
bool ParseStorageLayout(std::string_view name, StorageLayout* out) noexcept;

class CompressedStore {
 public:
  /// Header bytes preceding the codes of every block.
  static constexpr std::size_t kHeaderBytes = 16;
  /// Blocks are padded to a multiple of this (one cache line).
  static constexpr std::size_t kBlockAlign = 64;
  /// The scan loop prefetches the block this many rows ahead: one row of
  /// AVX2 decode (~50-60 ns at 768-d) is shorter than DRAM latency, two
  /// rows (~1.6 KiB ahead) reliably covers it. See DESIGN.md §11.
  static constexpr std::size_t kPrefetchRowsAhead = 2;

  /// An empty store that cannot hold rows (dim 0); assign a real one.
  CompressedStore() = default;

  /// `layout` must be kSq8 or kSq4 — float rows live in Matrix, not here.
  CompressedStore(std::size_t dim, StorageLayout layout);

  std::size_t dim() const noexcept { return dim_; }
  std::size_t rows() const noexcept { return rows_; }
  bool empty() const noexcept { return rows_ == 0; }
  StorageLayout layout() const noexcept { return layout_; }

  /// Bytes per row block (header + codes + pad), multiple of 64.
  std::size_t block_stride() const noexcept { return stride_; }
  /// Total bytes a full scan touches (rows * block_stride).
  std::size_t bytes() const noexcept { return rows_ * stride_; }

  void Reserve(std::size_t rows) { data_.reserve(rows * stride_); }
  void Clear() noexcept {
    data_.clear();
    rows_ = 0;
  }

  /// Quantizes and appends one float row. Deterministic: the same floats
  /// always produce the same codes.
  void AppendRow(std::span<const float> vec);

  /// Per-row quantization parameters (scale is the per-dimension step;
  /// the reconstruction error of any coordinate is at most scale/2).
  float RowScale(std::size_t r) const noexcept;
  float RowBias(std::size_t r) const noexcept;
  /// Squared L2 norm of the original float row (not the decoded one).
  float RowSqNorm(std::size_t r) const noexcept;

  /// Dequantizes row r into `out` (size dim); tests and debugging only —
  /// search paths accumulate straight from codes.
  void DecodeRow(std::size_t r, std::span<float> out) const;

  /// Distances from `query` to rows [row_lo, row_lo+count) under
  /// `metric` (smaller = closer: inner product negated, cosine finished
  /// against the stored float norms). Runs the quantized slots of the
  /// active KernelTable, the table kernels.h dispatches through, with
  /// whole-block prefetch kPrefetchRowsAhead rows ahead. Writes `count`
  /// results into `out`.
  void ScanRange(Metric metric, std::span<const float> query,
                 std::size_t row_lo, std::size_t count, float* out) const;

  /// ScanRange over every row.
  void Scan(Metric metric, std::span<const float> query, float* out) const {
    ScanRange(metric, query, 0, rows_, out);
  }

  /// Distances to the scattered rows ids[0..count), prefetching the next
  /// block one id ahead — the compressed analogue of GatherDistance for
  /// graph expansion.
  void GatherScan(Metric metric, std::span<const float> query,
                  const std::uint32_t* ids, std::size_t count,
                  float* out) const;

  /// Single-row distance (graph entry points, spot checks).
  float RowDistance(Metric metric, std::span<const float> query,
                    std::size_t r) const;

 private:
  const std::uint8_t* Block(std::size_t r) const noexcept {
    return data_.data() + r * stride_;
  }

  std::size_t dim_ = 0;
  StorageLayout layout_ = StorageLayout::kSq8;
  std::size_t code_bytes_ = 0;  // bytes of codes per row
  std::size_t stride_ = 0;      // kHeaderBytes + code_bytes_, padded to 64
  std::size_t rows_ = 0;
  std::vector<std::uint8_t> data_;
};

}  // namespace proximity
