#include "index/index_factory.h"

#include <algorithm>
#include <stdexcept>

#include "common/log.h"
#include "common/rng.h"
#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "index/ivf_flat_index.h"
#include "index/mutable_index.h"

namespace proximity {

namespace {

/// Deterministic subsample of up to `max_rows` corpus rows for training.
Matrix TrainingSample(const Matrix& corpus, std::size_t max_rows,
                      std::uint64_t seed) {
  if (corpus.rows() <= max_rows) return corpus;
  Rng rng(seed);
  std::vector<std::size_t> ids(corpus.rows());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  rng.Shuffle(ids);
  ids.resize(max_rows);
  Matrix sample(0, corpus.dim());
  sample.Reserve(max_rows);
  for (std::size_t id : ids) sample.AppendRow(corpus.Row(id));
  return sample;
}

}  // namespace

std::unique_ptr<VectorIndex> BuildIndex(const IndexSpec& spec,
                                        const Matrix& corpus) {
  const std::size_t dim = corpus.dim();
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
    ivf->Train(TrainingSample(corpus, std::max<std::size_t>(spec.ivf_nlist * 64,
                                                            4096),
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

  LogInfo("building {} over {} vectors (dim {})", spec.kind, corpus.rows(),
          dim);
  index->AddBatch(corpus);
  return index;
}

}  // namespace proximity
