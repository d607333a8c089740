#include "index/sharded_index.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "obs/metrics_registry.h"
#include "obs/span.h"

namespace proximity {

namespace {
const obs::CounterHandle kObsSearches("shard.searches");
const obs::CounterHandle kObsBatchQueries("shard.batch_queries");
// One sample per shard block of a SearchBatch (a Search is a batch of
// one); the scatter-gather fan-out cost the serving layer pays.
const obs::HistogramHandle kObsSearchNs("shard.search_ns");
}  // namespace

ShardedIndex::ShardedIndex(std::vector<std::unique_ptr<VectorIndex>> shards,
                           std::vector<std::vector<VectorId>> global_ids)
    : shards_(std::move(shards)), global_ids_(std::move(global_ids)) {
  if (shards_.empty()) {
    throw std::invalid_argument("ShardedIndex: needs at least one shard");
  }
  if (global_ids_.size() != shards_.size()) {
    throw std::invalid_argument(
        "ShardedIndex: one global-id list per shard required");
  }
  dim_ = shards_[0]->dim();
  metric_ = shards_[0]->metric();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s]->dim() != dim_ || shards_[s]->metric() != metric_) {
      throw std::invalid_argument(
          "ShardedIndex: shards disagree on dim/metric");
    }
    if (global_ids_[s].size() != shards_[s]->size()) {
      throw std::invalid_argument(
          "ShardedIndex: global-id list size mismatch for shard " +
          std::to_string(s));
    }
    total_.fetch_add(shards_[s]->size(), std::memory_order_relaxed);
  }
  // Owner table for O(1) delete routing: global id → (shard, local).
  VectorId max_id = -1;
  for (const auto& ids : global_ids_) {
    for (VectorId id : ids) max_id = std::max(max_id, id);
  }
  owner_.assign(static_cast<std::size_t>(max_id + 1),
                {kInvalidOwner, kInvalidOwner});
  for (std::size_t s = 0; s < global_ids_.size(); ++s) {
    for (std::size_t local = 0; local < global_ids_[s].size(); ++local) {
      owner_[static_cast<std::size_t>(global_ids_[s][local])] = {
          static_cast<std::uint32_t>(s), static_cast<std::uint32_t>(local)};
    }
  }
}

VectorId ShardedIndex::Add(std::span<const float> vec) {
  return Insert(vec);
}

VectorId ShardedIndex::Insert(std::span<const float> vec) {
  CheckDim(vec);
  std::unique_lock lock(map_mu_);
  std::size_t target = 0;
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    if (shards_[s]->size() < shards_[target]->size()) target = s;
  }
  // For build-once shards this appends (local == old shard size); a
  // mutable shard may hand back a reclaimed slot, whose global id we
  // reuse so the owner table and local→global lists stay append-only
  // (that stability is what lets searches read them under a short
  // shared lock).
  const auto local = static_cast<std::size_t>(shards_[target]->Insert(vec));
  VectorId global;
  if (local < global_ids_[target].size()) {
    global = global_ids_[target][local];
  } else {
    global = static_cast<VectorId>(owner_.size());
    global_ids_[target].push_back(global);
    owner_.push_back({static_cast<std::uint32_t>(target),
                      static_cast<std::uint32_t>(local)});
  }
  total_.fetch_add(1, std::memory_order_relaxed);
  return global;
}

bool ShardedIndex::Delete(VectorId id) {
  std::unique_lock lock(map_mu_);
  const auto idx = static_cast<std::size_t>(id);
  if (id < 0 || idx >= owner_.size()) return false;
  const auto [shard, local] = owner_[idx];
  if (shard == kInvalidOwner) return false;
  if (!shards_[shard]->Delete(static_cast<VectorId>(local))) return false;
  total_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

std::size_t ShardedIndex::Consolidate() {
  std::size_t reclaimed = 0;
  for (auto& shard : shards_) reclaimed += shard->Consolidate();
  return reclaimed;
}

std::uint64_t ShardedIndex::generation() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard->generation();
  return sum;
}

bool ShardedIndex::SupportsMutation() const noexcept {
  for (const auto& shard : shards_) {
    if (!shard->SupportsMutation()) return false;
  }
  return true;
}

void ShardedIndex::ToGlobal(std::size_t shard,
                            std::vector<Neighbor>& neighbors) const {
  // Short shared section; callers never hold a shard's internal lock
  // here (the shard search has already returned), so this cannot
  // deadlock against Insert's map-then-shard lock order.
  std::shared_lock lock(map_mu_);
  const auto& ids = global_ids_[shard];
  for (auto& n : neighbors) {
    n.id = ids[static_cast<std::size_t>(n.id)];
  }
}

std::vector<Neighbor> ShardedIndex::MergeSorted(
    std::vector<std::vector<Neighbor>>& parts, std::size_t k) {
  // Exact k-way heap merge. Each part is sorted by (distance, id); the
  // heap pops globally smallest first, so ties across shards resolve by
  // id exactly as the unsharded index's TopK does.
  struct Head {
    Neighbor n;
    std::size_t part;
    std::size_t pos;
  };
  struct HeadLater {
    bool operator()(const Head& a, const Head& b) const noexcept {
      return NeighborCloser{}(b.n, a.n);  // min-heap by (distance, id)
    }
  };
  std::priority_queue<Head, std::vector<Head>, HeadLater> heap;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    if (!parts[p].empty()) heap.push({parts[p][0], p, 0});
  }
  std::vector<Neighbor> merged;
  merged.reserve(k);
  while (merged.size() < k && !heap.empty()) {
    Head head = heap.top();
    heap.pop();
    merged.push_back(head.n);
    if (head.pos + 1 < parts[head.part].size()) {
      ++head.pos;
      head.n = parts[head.part][head.pos];
      heap.push(head);
    }
  }
  return merged;
}

std::vector<Neighbor> ShardedIndex::Search(std::span<const float> query,
                                           std::size_t k) const {
  CheckDim(query);
  const Matrix one(std::vector<float>(query.begin(), query.end()), dim_);
  return std::move(SearchBatch(one, k)[0]);
}

std::vector<std::vector<Neighbor>> ShardedIndex::SearchBatch(
    const Matrix& queries, std::size_t k) const {
  const std::size_t Q = queries.rows();
  if (Q == 0) return {};
  if (queries.dim() != dim_) {
    throw std::invalid_argument("ShardedIndex::SearchBatch: dim mismatch");
  }
  std::vector<std::vector<Neighbor>> results(Q);
  if (k == 0 || size() == 0) return results;
  const obs::Span span(obs::Stage::kIndexSearch);
  const std::size_t S = shards_.size();
  kObsBatchQueries.Inc(Q);

  // Each shard searches a block of queries at once, so an exact shard
  // reads its rows once per block. With fewer shards than the pool has
  // threads plus the caller, each shard's queries split into
  // (threads + 1) / shards blocks to keep the pool busy; never more,
  // since every extra block reads the shard's rows again.
  auto& pool = ThreadPool::Shared();
  const std::size_t blocks =
      std::clamp<std::size_t>((pool.size() + 1) / S, 1, Q);
  std::vector<std::vector<Neighbor>> legs(S * Q);  // [shard * Q + query]
  pool.ParallelFor(0, S * blocks, [&](std::size_t t) {
    const std::size_t s = t / blocks;
    const std::size_t lo = (t % blocks) * Q / blocks;
    const std::size_t hi = (t % blocks + 1) * Q / blocks;
    Stopwatch watch;
    std::vector<std::vector<Neighbor>> found;
    if (blocks == 1) {
      found = shards_[s]->SearchBatch(queries, k);
    } else {
      Matrix block(0, dim_);
      block.Reserve(hi - lo);
      for (std::size_t q = lo; q < hi; ++q) block.AppendRow(queries.Row(q));
      found = shards_[s]->SearchBatch(block, k);
    }
    for (std::size_t q = lo; q < hi; ++q) {
      legs[s * Q + q] = std::move(found[q - lo]);
      ToGlobal(s, legs[s * Q + q]);
    }
    kObsSearchNs.Record(watch.ElapsedNanos());
    kObsSearches.Inc();
  });
  std::vector<std::vector<Neighbor>> per_query(S);
  for (std::size_t q = 0; q < Q; ++q) {
    for (std::size_t s = 0; s < S; ++s) {
      per_query[s] = std::move(legs[s * Q + q]);
    }
    results[q] = MergeSorted(per_query, k);
  }
  return results;
}

std::string ShardedIndex::Describe() const {
  return "sharded(" + shards_[0]->Describe() +
         ",shards=" + std::to_string(shards_.size()) +
         ",n=" + std::to_string(size()) + ")";
}

std::unique_ptr<ShardedIndex> BuildPartitionedIndex(const IndexSpec& spec,
                                                    const Matrix& corpus,
                                                    std::size_t part,
                                                    std::size_t parts,
                                                    ShardedIndexOptions
                                                        options) {
  const std::size_t rows = corpus.rows();
  if (parts == 0 || part >= parts) {
    throw std::invalid_argument("BuildPartitionedIndex: part " +
                                std::to_string(part) + " of " +
                                std::to_string(parts));
  }
  // Ceiling-division striping, the same cut at both levels: partition
  // boundaries equal the shard boundaries of BuildShardedIndex(parts), so
  // they line up between the cluster and the single-process reference.
  const std::size_t chunk = (rows + parts - 1) / parts;
  const std::size_t lo = std::min(rows, part * chunk);
  const std::size_t hi = std::min(rows, lo + chunk);
  if (lo >= hi) {
    throw std::invalid_argument(
        "BuildPartitionedIndex: partition " + std::to_string(part) + "/" +
        std::to_string(parts) + " is empty (corpus has " +
        std::to_string(rows) + " rows)");
  }
  // The stripe itself shards internally like any corpus; an exact
  // sub-merge of an exact index preserves the stripe's true top-k, so
  // the internal shape does not affect the router-visible answer.
  const std::size_t rows_local = hi - lo;
  std::size_t S = options.num_shards != 0 ? options.num_shards
                                          : ThreadPool::Shared().size();
  S = std::max<std::size_t>(1, std::min(S, rows_local));
  const std::size_t sub_chunk = (rows_local + S - 1) / S;
  // Only non-empty sub-stripes become shards: the ceiling cut can run
  // out of rows early (9 rows over 4 shards cut 3/3/3), and an empty
  // shard has nothing to train or search.
  S = (rows_local + sub_chunk - 1) / sub_chunk;
  std::vector<std::unique_ptr<VectorIndex>> shards(S);
  std::vector<std::vector<VectorId>> global_ids(S);
  // Shards build in parallel: construction of distinct indexes is
  // independent, and nested pool use (k-means in an IVF shard's Train)
  // is safe because blocked ParallelFor callers help drain the queue.
  // Each shard reads its rows straight from the corpus.
  ThreadPool::Shared().ParallelFor(0, S, [&](std::size_t s) {
    const std::size_t sub_lo = lo + s * sub_chunk;
    const std::size_t sub_hi = std::min(hi, sub_lo + sub_chunk);
    shards[s] = BuildIndex(spec, corpus, sub_lo, sub_hi);
    global_ids[s].resize(sub_hi - sub_lo);
    std::iota(global_ids[s].begin(), global_ids[s].end(),
              static_cast<VectorId>(sub_lo));
  });
  return std::make_unique<ShardedIndex>(std::move(shards),
                                        std::move(global_ids));
}

std::unique_ptr<ShardedIndex> BuildShardedIndex(const IndexSpec& spec,
                                                const Matrix& corpus,
                                                ShardedIndexOptions options) {
  return BuildPartitionedIndex(spec, corpus, /*part=*/0, /*parts=*/1, options);
}

}  // namespace proximity
