#include "layers.h"

#include <utility>

namespace perfbench {

namespace {
thread_local SearchRecord tl_last_search;
}  // namespace

const char* PathName(Path path) {
  switch (path) {
    case Path::kAnswerHit: return "answer_hit";
    case Path::kDocHit: return "doc_hit";
    case Path::kMiss: return "miss";
    case Path::kCoalesced: return "coalesced";
    case Path::kWrite: return "write";
    case Path::kFailed: return "failed";
  }
  return "unknown";
}

void Recorder::AddSink(const SinkRecord& r) {
  std::lock_guard lock(mu_);
  data_.sinks.push_back(r);
}

void Recorder::AddSearch(const SearchRecord& r) {
  std::lock_guard lock(mu_);
  data_.searches.push_back(r);
}

void Recorder::AddInsert(std::int64_t ns) {
  std::lock_guard lock(mu_);
  data_.inserts.push_back(ns);
}

void Recorder::AddDelete(std::int64_t ns) {
  std::lock_guard lock(mu_);
  data_.deletes.push_back(ns);
}

void Recorder::AddConsolidate(std::int64_t ns) {
  std::lock_guard lock(mu_);
  data_.consolidates.push_back(ns);
}

Recorder::Data Recorder::Take() {
  std::lock_guard lock(mu_);
  Data out = std::move(data_);
  data_ = Data{};
  return out;
}

SearchRecord LastSearchOnThisThread() { return tl_last_search; }

std::vector<std::vector<proximity::Neighbor>> TimedIndex::SearchBatch(
    const proximity::Matrix& queries, std::size_t k) const {
  if (!recorder_.enabled()) return inner_.SearchBatch(queries, k);
  SearchRecord r;
  r.start_ns = NowNs();
  auto out = inner_.SearchBatch(queries, k);
  r.end_ns = NowNs();
  r.queries = queries.rows();
  tl_last_search = r;
  recorder_.AddSearch(r);
  return out;
}

proximity::VectorId TimedIndex::Insert(std::span<const float> vec) {
  if (!recorder_.enabled()) return inner_.Insert(vec);
  const std::int64_t start = NowNs();
  const proximity::VectorId id = inner_.Insert(vec);
  recorder_.AddInsert(NowNs() - start);
  return id;
}

bool TimedIndex::Delete(proximity::VectorId id) {
  if (!recorder_.enabled()) return inner_.Delete(id);
  const std::int64_t start = NowNs();
  const bool ok = inner_.Delete(id);
  recorder_.AddDelete(NowNs() - start);
  return ok;
}

std::size_t TimedIndex::Consolidate() {
  if (!recorder_.enabled()) return inner_.Consolidate();
  const std::int64_t start = NowNs();
  const std::size_t reclaimed = inner_.Consolidate();
  recorder_.AddConsolidate(NowNs() - start);
  return reclaimed;
}

void TimedSink::Submit(proximity::net::Request request,
                       const proximity::SubmitOptions& options,
                       proximity::BatchCallback done) {
  if (!recorder_.enabled()) {
    inner_.Submit(std::move(request), options, std::move(done));
    return;
  }
  const std::int64_t start = NowNs();
  const std::uint64_t id = request.id;
  const bool write = request.mutation_op != proximity::net::kMutationNone;
  auto timed = [this, id, write, start,
                done = std::move(done)](proximity::BatchResult result) {
    SinkRecord r;
    r.id = id;
    r.group = group_;
    r.start_ns = start;
    r.end_ns = NowNs();
    r.queue_ns = result.queue_wait_ns;
    if (result.status != proximity::RequestStatus::kOk) {
      r.path = Path::kFailed;
    } else if (write) {
      r.path = Path::kWrite;
    } else if (result.answer_hit) {
      r.path = Path::kAnswerHit;
    } else if (result.cache_hit) {
      r.path = Path::kDocHit;
    } else if (result.coalesced) {
      r.path = Path::kCoalesced;
    } else {
      r.path = Path::kMiss;
    }
    // Completions run on the driver's flusher thread right after their
    // batch; a search that began after this request left the queue is
    // its own batch's search (the flusher runs one batch at a time).
    const SearchRecord s = LastSearchOnThisThread();
    if (s.end_ns != 0 && s.start_ns >= start + result.queue_wait_ns &&
        s.end_ns <= r.end_ns) {
      r.index_start_ns = s.start_ns;
      r.index_end_ns = s.end_ns;
    }
    recorder_.AddSink(r);
    done(std::move(result));
  };
  inner_.Submit(std::move(request), options, std::move(timed));
}

}  // namespace perfbench
