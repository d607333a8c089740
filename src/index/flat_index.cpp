#include "index/flat_index.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/serde.h"
#include "index/index_io.h"
#include "obs/scan_stats.h"
#include "obs/span.h"
#include "vecmath/kernels.h"
#include "vecmath/topk.h"

namespace proximity {

FlatIndex::FlatIndex(std::size_t dim, FlatIndexOptions options)
    : options_(options), vectors_(0, dim) {
  // Cosine scans use the pre-normalized batch path: keep per-row squared
  // norms so every Search skips the per-row norm pass.
  if (options_.metric == Metric::kCosine) vectors_.EnableNormCache();
  if (quantized()) store_ = CompressedStore(dim, options_.storage);
}

VectorId FlatIndex::Add(std::span<const float> vec) {
  CheckDim(vec);
  const VectorId id = static_cast<VectorId>(vectors_.rows());
  vectors_.AppendRow(vec);
  // Full-precision rows are kept alongside the codes: the rerank stage
  // (and exact serialization) reads them.
  if (quantized()) store_.AppendRow(vec);
  return id;
}

VectorId FlatIndex::AddRows(const Matrix& vectors, std::size_t lo,
                            std::size_t hi) {
  CheckRows(vectors, lo, hi);
  vectors_.Reserve(size() + (hi - lo));
  if (quantized()) store_.Reserve(size() + (hi - lo));
  return VectorIndex::AddRows(vectors, lo, hi);
}

std::vector<Neighbor> FlatIndex::Search(std::span<const float> query,
                                        std::size_t k) const {
  CheckDim(query);
  if (k == 0 || vectors_.rows() == 0) return {};
  const obs::Span span(obs::Stage::kIndexSearch);
  const std::size_t n = vectors_.rows();
  const std::size_t d = vectors_.dim();

  if (quantized()) {
    // Two-level path: compressed primary scan over-fetches
    // rerank_factor * k candidates, then the float rows of just those
    // candidates decide the final top-k (DESIGN.md §11).
    const std::size_t fetch =
        std::min(n, std::max(k * std::max<std::size_t>(options_.rerank_factor,
                                                       1),
                             k));
    TopK coarse(fetch);
    constexpr std::size_t kTile = 4096;
    std::vector<float> dist(std::min(n, kTile));
    for (std::size_t t = 0; t < n; t += kTile) {
      const std::size_t len = std::min(kTile, n - t);
      store_.ScanRange(options_.metric, query, t, len, dist.data());
      for (std::size_t i = 0; i < len; ++i) {
        coarse.Push(static_cast<VectorId>(t + i), dist[i]);
      }
    }

    std::vector<std::uint32_t> ids;
    ids.reserve(fetch);
    for (const auto& nb : coarse.Take()) {
      ids.push_back(static_cast<std::uint32_t>(nb.id));
    }
    std::vector<float> exact(ids.size());
    GatherDistance(options_.metric, query, vectors_.data(), d, ids.data(),
                   ids.size(), exact.data());
    TopK top(k);
    for (std::size_t j = 0; j < ids.size(); ++j) {
      top.Push(static_cast<VectorId>(ids[j]), exact[j]);
    }
    obs::ScanPrimaryBytes(n * store_.block_stride());
    obs::ScanRerankBytes(ids.size() * d * sizeof(float));
    obs::ScanCandidates(ids.size());
    obs::ScanQuery(static_cast<double>(ids.size()) / static_cast<double>(n));
    return top.Take();
  }

  return std::move(ScanFloat(query.data(), 1, k)[0]);
}

std::vector<std::vector<Neighbor>> FlatIndex::SearchBatch(
    const Matrix& queries, std::size_t k) const {
  const std::size_t nq = queries.rows();
  if (nq > 0 && queries.dim() != dim()) {
    throw std::invalid_argument("FlatIndex::SearchBatch: dimension mismatch");
  }
  if (quantized()) return VectorIndex::SearchBatch(queries, k);
  if (nq == 0 || k == 0 || vectors_.rows() == 0) {
    return std::vector<std::vector<Neighbor>>(nq);
  }
  const obs::Span span(obs::Stage::kIndexSearch);
  return ScanFloat(queries.data(), nq, k);
}

std::vector<std::vector<Neighbor>> FlatIndex::ScanFloat(const float* queries,
                                                        std::size_t nq,
                                                        std::size_t k) const {
  return SelectTopK(options_.metric, queries, nq, vectors_.data(),
                    vectors_.rows(), vectors_.dim(), k, /*base_id=*/0,
                    vectors_.RowNorms());
}

std::string FlatIndex::Describe() const {
  std::string desc = "flat(" + std::string(MetricName(options_.metric));
  if (quantized()) {
    desc += ",storage=" + std::string(StorageLayoutName(options_.storage)) +
            ",rerank=" + std::to_string(options_.rerank_factor);
  }
  return desc + ",n=" + std::to_string(size()) + ")";
}

void FlatIndex::SaveTo(std::ostream& os) const {
  BinaryWriter w(os);
  // Version 2 appends the storage layout and rerank factor. Float32
  // indexes keep emitting byte-exact version-1 files so older builds
  // still read them; quantized codes are never persisted — they are
  // re-derived deterministically from the float rows on load.
  WriteHeader(w, io_magic::kFlatIndex, /*version=*/quantized() ? 2 : 1);
  w.WriteU32(static_cast<std::uint32_t>(options_.metric));
  // The slot of the retired parallel_threshold (rows above which a scan
  // was split across the pool): written as 0, ignored by LoadFrom.
  w.WriteU64(0);
  if (quantized()) {
    w.WriteU32(static_cast<std::uint32_t>(options_.storage));
    w.WriteU64(options_.rerank_factor);
  }
  WriteMatrix(w, vectors_);
  w.Finish();
}

FlatIndex FlatIndex::LoadFrom(std::istream& is) {
  BinaryReader r(is);
  const std::uint32_t version =
      ReadHeader(r, io_magic::kFlatIndex, /*max_version=*/2);
  FlatIndexOptions opts;
  opts.metric = ReadEnum(r, kLastMetric);
  (void)r.ReadU64();  // the retired slot (see SaveTo)
  if (version >= 2) {
    opts.storage = ReadEnum(r, StorageLayout::kSq4);
    opts.rerank_factor = r.ReadU64();
  }
  Matrix vectors = ReadMatrix(r);
  r.VerifyChecksum();
  FlatIndex index(vectors.dim(), opts);
  for (std::size_t row = 0; row < vectors.rows(); ++row) {
    if (index.quantized()) index.store_.AppendRow(vectors.Row(row));
  }
  index.vectors_ = std::move(vectors);
  if (opts.metric == Metric::kCosine) index.vectors_.EnableNormCache();
  return index;
}

}  // namespace proximity
