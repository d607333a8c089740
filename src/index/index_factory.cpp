#include "index/index_factory.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/log.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "index/ivf_flat_index.h"
#include "index/mutable_index.h"

namespace proximity {

namespace {

/// Deterministic subsample of up to `max_rows` of corpus rows [lo, hi)
/// for training: the whole range in order when it fits.
Matrix TrainingSample(const Matrix& corpus, std::size_t lo, std::size_t hi,
                      std::size_t max_rows, std::uint64_t seed) {
  std::vector<std::size_t> ids(hi - lo);
  std::iota(ids.begin(), ids.end(), lo);
  if (ids.size() > max_rows) {
    Rng rng(seed);
    rng.Shuffle(ids);
    ids.resize(max_rows);
  }
  Matrix sample(0, corpus.dim());
  sample.Reserve(ids.size());
  for (std::size_t id : ids) sample.AppendRow(corpus.Row(id));
  return sample;
}

}  // namespace

std::unique_ptr<VectorIndex> BuildIndex(const IndexSpec& spec,
                                        const Matrix& corpus) {
  return BuildIndex(spec, corpus, 0, corpus.rows());
}

std::unique_ptr<VectorIndex> BuildIndex(const IndexSpec& spec,
                                        const Matrix& corpus, std::size_t lo,
                                        std::size_t hi) {
  const Stopwatch watch;
  const std::size_t dim = corpus.dim();
  if (lo > hi || hi > corpus.rows()) {
    throw std::invalid_argument("BuildIndex: rows [" + std::to_string(lo) +
                                ", " + std::to_string(hi) + ") of " +
                                std::to_string(corpus.rows()));
  }
  std::unique_ptr<VectorIndex> index;

  StorageLayout storage = StorageLayout::kFloat32;
  if (!ParseStorageLayout(spec.storage, &storage)) {
    throw std::invalid_argument("BuildIndex: unknown storage layout '" +
                                spec.storage + "'");
  }

  if (spec.kind == "flat") {
    FlatIndexOptions opts;
    opts.metric = spec.metric;
    opts.storage = storage;
    opts.rerank_factor = spec.rerank_factor;
    index = std::make_unique<FlatIndex>(dim, opts);
  } else if (spec.kind == "hnsw") {
    HnswOptions opts;
    opts.metric = spec.metric;
    opts.M = spec.hnsw_m;
    opts.ef_construction = spec.hnsw_ef_construction;
    opts.ef_search = spec.hnsw_ef_search;
    opts.seed = spec.seed;
    opts.storage = storage;
    index = std::make_unique<HnswIndex>(dim, opts);
  } else if (spec.kind == "ivf_flat") {
    IvfFlatOptions opts;
    opts.metric = spec.metric;
    opts.nlist = spec.ivf_nlist;
    opts.nprobe = spec.ivf_nprobe;
    opts.seed = spec.seed;
    opts.storage = storage;
    opts.rerank_factor = spec.rerank_factor;
    auto ivf = std::make_unique<IvfFlatIndex>(dim, opts);
    ivf->Train(TrainingSample(
        corpus, lo, hi, std::max<std::size_t>(spec.ivf_nlist * 64, 4096),
        spec.seed));
    index = std::move(ivf);
  } else if (spec.kind == "mutable") {
    if (storage != StorageLayout::kFloat32) {
      throw std::invalid_argument(
          "BuildIndex: mutable index supports storage=float32 only (a "
          "compressed graph is hnsw with storage=sq8 or sq4)");
    }
    MutableGraphOptions opts;
    opts.metric = spec.metric;
    opts.max_degree = spec.vamana_degree;
    opts.build_beam = spec.vamana_beam;
    opts.search_beam = spec.vamana_beam;
    opts.alpha = spec.vamana_alpha;
    opts.seed = spec.seed;
    index = std::make_unique<MutableGraphIndex>(dim, opts);
  } else {
    std::string known;
    for (std::string_view kind : kIndexKinds) {
      known += known.empty() ? "" : " ";
      known += kind;
    }
    throw std::invalid_argument("BuildIndex: unknown index kind '" +
                                spec.kind + "' (known: " + known + ")");
  }

  LogInfo("building {} over {} vectors (dim {})", spec.kind, hi - lo, dim);
  index->AddRows(corpus, lo, hi);
  LogInfo("built {} over {} vectors in {:.0f} ms", spec.kind, hi - lo,
          watch.ElapsedMillis());
  return index;
}

}  // namespace proximity
