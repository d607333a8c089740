#include "index/ivf_flat_index.h"

#include <algorithm>
#include <stdexcept>

#include "common/serde.h"
#include "index/index_io.h"
#include "index/kmeans.h"
#include "obs/scan_stats.h"
#include "obs/span.h"
#include "vecmath/kernels.h"
#include "vecmath/topk.h"

namespace proximity {

IvfFlatIndex::IvfFlatIndex(std::size_t dim, IvfFlatOptions options)
    : dim_(dim), options_(options) {
  if (dim == 0) throw std::invalid_argument("IvfFlatIndex: dim must be > 0");
  if (options_.nlist == 0) {
    throw std::invalid_argument("IvfFlatIndex: nlist must be > 0");
  }
}

void IvfFlatIndex::Train(const Matrix& sample) {
  if (trained_) throw std::logic_error("IvfFlatIndex: already trained");
  if (sample.dim() != dim_) {
    throw std::invalid_argument("IvfFlatIndex::Train: dimension mismatch");
  }
  if (sample.rows() == 0) {
    throw std::invalid_argument("IvfFlatIndex::Train: empty sample");
  }
  KMeansOptions kopts;
  kopts.seed = options_.seed;
  centroids_ = RunKMeans(sample, options_.nlist, kopts).centroids;
  lists_.resize(centroids_.rows());
  if (quantized()) {
    for (auto& list : lists_) {
      list.codes = CompressedStore(dim_, options_.storage);
    }
  }
  trained_ = true;
}

VectorId IvfFlatIndex::Add(std::span<const float> vec) {
  if (!trained_) throw std::logic_error("IvfFlatIndex: train before Add");
  CheckDim(vec);
  const std::uint32_t list = NearestCentroid(centroids_, vec);
  const VectorId id = static_cast<VectorId>(count_++);
  auto& l = lists_[list];
  l.ids.push_back(id);
  l.vectors.insert(l.vectors.end(), vec.begin(), vec.end());
  if (quantized()) l.codes.AppendRow(vec);
  return id;
}

std::vector<Neighbor> IvfFlatIndex::Search(std::span<const float> query,
                                           std::size_t k) const {
  if (!trained_) throw std::logic_error("IvfFlatIndex: train before Search");
  CheckDim(query);
  if (k == 0 || count_ == 0) return {};
  const obs::Span span(obs::Stage::kIndexSearch);

  // Rank coarse centroids by distance to the query.
  const std::size_t nprobe = std::min(options_.nprobe, centroids_.rows());
  std::vector<Neighbor> probe_order =
      SelectTopK(Metric::kL2, query, centroids_.data(), centroids_.rows(),
                 dim_, nprobe);

  if (quantized()) {
    // Two-level posting scan: compressed codes of each probed list feed
    // an over-fetched candidate heap keyed by (list, row); only the
    // survivors read their float entries back for the exact rerank.
    const std::size_t fetch =
        std::max(k * std::max<std::size_t>(options_.rerank_factor, 1), k);
    TopK coarse(fetch);
    std::vector<float> dist;
    std::uint64_t scanned_rows = 0, scanned_bytes = 0;
    for (const auto& probe : probe_order) {
      const auto& list = lists_[static_cast<std::size_t>(probe.id)];
      const std::size_t entries = list.ids.size();
      if (entries == 0) continue;
      dist.resize(entries);
      list.codes.Scan(options_.metric, query, dist.data());
      scanned_rows += entries;
      scanned_bytes += list.codes.bytes();
      // Pack (list, row) into the candidate id; rows per list stay far
      // below 2^40 and nlist below 2^23, so the pack is lossless.
      const VectorId packed_list = probe.id << 40;
      for (std::size_t r = 0; r < entries; ++r) {
        coarse.Push(packed_list | static_cast<VectorId>(r), dist[r]);
      }
    }
    TopK top(k);
    const auto coarse_hits = coarse.Take();
    for (const auto& cand : coarse_hits) {
      const auto& list = lists_[static_cast<std::size_t>(cand.id >> 40)];
      const auto row = static_cast<std::size_t>(cand.id & ((1LL << 40) - 1));
      const std::span<const float> entry(list.vectors.data() + row * dim_,
                                         dim_);
      top.Push(list.ids[row], Distance(options_.metric, query, entry));
    }
    obs::ScanPrimaryBytes(scanned_bytes);
    obs::ScanRerankBytes(coarse_hits.size() * dim_ * sizeof(float));
    obs::ScanCandidates(coarse_hits.size());
    if (scanned_rows > 0) {
      obs::ScanQuery(static_cast<double>(coarse_hits.size()) /
                     static_cast<double>(scanned_rows));
    }
    return top.Take();
  }

  // Posting lists are contiguous row-major blocks: scan each probed list
  // with the fused batch kernels, reusing one distance buffer across probes.
  TopK top(k);
  std::vector<float> dist;
  for (const auto& probe : probe_order) {
    const auto& list = lists_[static_cast<std::size_t>(probe.id)];
    const std::size_t entries = list.ids.size();
    if (entries == 0) continue;
    dist.resize(entries);
    BatchDistance(options_.metric, query, list.vectors.data(), entries, dim_,
                  dist.data());
    for (std::size_t r = 0; r < entries; ++r) {
      top.Push(list.ids[r], dist[r]);
    }
  }
  return top.Take();
}

void IvfFlatIndex::SaveTo(std::ostream& os) const {
  if (!trained_) throw std::logic_error("IvfFlatIndex: train before SaveTo");
  BinaryWriter w(os);
  // Version 2 appends the storage layout and rerank factor; float32
  // indexes keep writing byte-exact version-1 files (see FlatIndex).
  WriteHeader(w, io_magic::kIvfFlat, /*version=*/quantized() ? 2 : 1);
  w.WriteU64(dim_);
  w.WriteU32(static_cast<std::uint32_t>(options_.metric));
  w.WriteU64(options_.nlist);
  w.WriteU64(options_.nprobe);
  w.WriteU64(options_.seed);
  if (quantized()) {
    w.WriteU32(static_cast<std::uint32_t>(options_.storage));
    w.WriteU64(options_.rerank_factor);
  }
  w.WriteU64(count_);
  WriteMatrix(w, centroids_);
  for (const auto& list : lists_) {
    w.WriteI64s(list.ids);
    w.WriteFloats(list.vectors);
  }
  w.Finish();
}

IvfFlatIndex IvfFlatIndex::LoadFrom(std::istream& is) {
  BinaryReader r(is);
  const std::uint32_t version =
      ReadHeader(r, io_magic::kIvfFlat, /*max_version=*/2);
  const std::uint64_t dim = r.ReadU64();
  IvfFlatOptions opts;
  opts.metric = ReadEnum(r, kLastMetric);
  opts.nlist = r.ReadU64();
  opts.nprobe = r.ReadU64();
  opts.seed = r.ReadU64();
  if (version >= 2) {
    opts.storage = ReadEnum(r, StorageLayout::kSq4);
    opts.rerank_factor = r.ReadU64();
  }
  const std::uint64_t count = r.ReadU64();

  IvfFlatIndex index(dim, opts);
  index.centroids_ = ReadMatrix(r);
  index.lists_.resize(index.centroids_.rows());
  std::uint64_t restored = 0;
  for (auto& list : index.lists_) {
    list.ids = r.ReadI64s();
    list.vectors = r.ReadFloats();
    if (list.vectors.size() != list.ids.size() * dim) {
      throw std::runtime_error("IvfFlatIndex::LoadFrom: list size mismatch");
    }
    if (index.quantized()) {
      // Codes are re-derived from the float entries (deterministic
      // encoding), so version-2 files carry no code payload.
      list.codes = CompressedStore(dim, opts.storage);
      for (std::size_t row = 0; row < list.ids.size(); ++row) {
        list.codes.AppendRow({list.vectors.data() + row * dim, dim});
      }
    }
    restored += list.ids.size();
  }
  if (restored != count) {
    throw std::runtime_error("IvfFlatIndex::LoadFrom: count mismatch");
  }
  index.count_ = count;
  index.trained_ = true;
  r.VerifyChecksum();
  return index;
}

std::string IvfFlatIndex::Describe() const {
  std::string desc = "ivf_flat(" + std::string(MetricName(options_.metric)) +
                     ",nlist=" + std::to_string(nlist()) +
                     ",nprobe=" + std::to_string(options_.nprobe);
  if (quantized()) {
    desc += ",storage=" + std::string(StorageLayoutName(options_.storage)) +
            ",rerank=" + std::to_string(options_.rerank_factor);
  }
  return desc + ",n=" + std::to_string(count_) + ")";
}

}  // namespace proximity
