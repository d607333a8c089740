#include "index/flat_index.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/serde.h"
#include "common/thread_pool.h"
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

std::vector<Neighbor> FlatIndex::ScanCompressed(std::span<const float> query,
                                                std::size_t lo, std::size_t hi,
                                                std::size_t fetch) const {
  TopK top(fetch);
  constexpr std::size_t kTile = 4096;
  std::vector<float> dist(std::min(hi - lo, kTile));
  for (std::size_t t = lo; t < hi; t += kTile) {
    const std::size_t len = std::min(kTile, hi - t);
    store_.ScanRange(options_.metric, query, t, len, dist.data());
    for (std::size_t i = 0; i < len; ++i) {
      top.Push(static_cast<VectorId>(t + i), dist[i]);
    }
  }
  return top.Take();
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
    std::vector<Neighbor> coarse;
    if (options_.parallel_threshold == 0 ||
        n <= options_.parallel_threshold) {
      coarse = ScanCompressed(query, 0, n, fetch);
    } else {
      auto& pool = ThreadPool::Shared();
      const std::size_t parts = pool.size() + 1;
      std::vector<std::vector<Neighbor>> partial(parts);
      const std::size_t chunk = (n + parts - 1) / parts;
      pool.ParallelFor(0, parts, [&](std::size_t p) {
        const std::size_t lo = p * chunk;
        if (lo >= n) return;
        partial[p] = ScanCompressed(query, lo, std::min(n, lo + chunk), fetch);
      });
      TopK merged(fetch);
      for (const auto& part : partial) {
        for (const auto& nb : part) merged.Push(nb.id, nb.distance);
      }
      coarse = merged.Take();
    }

    std::vector<std::uint32_t> ids;
    ids.reserve(coarse.size());
    for (const auto& nb : coarse) {
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
  const std::size_t n = vectors_.rows();
  const std::size_t d = vectors_.dim();
  const float* norms = vectors_.RowNorms();
  if (options_.parallel_threshold == 0 || n <= options_.parallel_threshold) {
    return SelectTopK(options_.metric, queries, nq, vectors_.data(), n, d, k,
                      /*base_id=*/0, norms);
  }

  // Parallel scan: each chunk of rows selects its local top-k for every
  // query, then each query merges its chunks.
  auto& pool = ThreadPool::Shared();
  const std::size_t parts = pool.size() + 1;
  std::vector<std::vector<std::vector<Neighbor>>> partial(parts);
  const std::size_t chunk = (n + parts - 1) / parts;
  pool.ParallelFor(0, parts, [&](std::size_t p) {
    const std::size_t lo = p * chunk;
    if (lo >= n) return;
    const std::size_t hi = std::min(n, lo + chunk);
    partial[p] = SelectTopK(options_.metric, queries, nq,
                            vectors_.data() + lo * d, hi - lo, d, k,
                            static_cast<VectorId>(lo),
                            norms != nullptr ? norms + lo : nullptr);
  });

  std::vector<std::vector<Neighbor>> results(nq);
  for (std::size_t j = 0; j < nq; ++j) {
    TopK merged(k);
    for (const auto& part : partial) {
      if (part.empty()) continue;
      for (const auto& nb : part[j]) merged.Push(nb.id, nb.distance);
    }
    results[j] = merged.Take();
  }
  return results;
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
  w.WriteU64(options_.parallel_threshold);
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
  opts.parallel_threshold = r.ReadU64();
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
