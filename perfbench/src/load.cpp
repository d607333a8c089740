#include "load.h"

#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "layers.h"
#include "net/client.h"
#include "obs/trace.h"

namespace perfbench {

namespace net = proximity::net;

std::uint64_t PhaseResult::sent() const {
  std::uint64_t n = 0;
  for (const Outcome& o : outcomes) n += o.sent ? 1 : 0;
  return n;
}

std::uint64_t PhaseResult::succeeded() const {
  std::uint64_t n = 0;
  for (const Outcome& o : outcomes) n += o.ok() ? 1 : 0;
  return n;
}

std::uint64_t PhaseResult::failed() const { return sent() - succeeded(); }

namespace {

net::ClientOptions LoadClientOptions() {
  net::ClientOptions o;
  o.connect_timeout_ms = 2000;
  // Bounds a stuck phase well inside the run's time limit.
  o.recv_timeout_ms = 20000;
  return o;
}

void Stamp(const PhaseOptions& opts, Kind kind, net::Request& req) {
  if (opts.trace) {
    req.trace_id = proximity::obs::NewTraceId();
    req.trace_parent = proximity::obs::NewSpanId();
  }
  if (opts.want_distances && kind == Kind::kQuery) {
    req.flags |= net::kReqFlagWantDistances;
  }
}

void Fill(Outcome& o, net::Response& resp, std::int64_t now) {
  o.answered = true;
  o.recv_ns = now;
  o.status = resp.status;
  o.flags = resp.flags;
  o.documents = std::move(resp.documents);
  o.distances = std::move(resp.distances);
}

// Tells the mix which writes took effect.
void Confirm(Mix& mix, Kind kind, const Outcome& o) {
  if (!o.ok()) return;
  if (kind == Kind::kInsert && !o.documents.empty()) {
    mix.OnInserted(o.documents.front());
  } else if (kind == Kind::kDelete) {
    mix.OnDeleted();
  }
}

}  // namespace

PhaseResult RunOpenLoop(Mix& mix, const PhaseOptions& opts, double rate,
                        double seconds, std::uint64_t seed) {
  PhaseResult res;
  proximity::Rng rng(seed);
  std::vector<double> arrival_s;
  for (double t = rng.Exponential(rate); t < seconds;
       t += rng.Exponential(rate)) {
    arrival_s.push_back(t);
  }
  const std::size_t n = arrival_s.size();
  const std::size_t conns =
      std::clamp<std::size_t>(opts.conns, 1, kMaxLoadThreads / 2);
  res.outcomes.resize(n);
  // Kind of each request, published by its sender before the send so
  // the receiver knows which answers confirm an INSERT.
  std::unique_ptr<std::atomic<std::uint8_t>[]> kinds(
      new std::atomic<std::uint8_t>[n]);

  std::vector<net::Client> clients;
  clients.reserve(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    clients.emplace_back(LoadClientOptions());
    if (!clients.back().Connect("127.0.0.1", opts.port)) {
      ++res.transport_errors;
      return res;
    }
  }

  // Start a little in the future so every thread is up before the first
  // scheduled send.
  const std::int64_t t0 = NowNs() + 2'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    Outcome& o = res.outcomes[i];
    o.id = opts.id_base + i + 1;
    o.seq = opts.first_seq + i;
    o.scheduled_ns = t0 + static_cast<std::int64_t>(arrival_s[i] * 1e9);
    kinds[i].store(0, std::memory_order_relaxed);
  }

  struct ConnState {
    std::atomic<std::uint64_t> sent{0};
    std::atomic<bool> sender_done{false};
    std::uint64_t transport = 0, duplicates = 0, unknown = 0;
  };
  std::vector<ConnState> state(conns);
  std::vector<std::thread> threads;
  threads.reserve(2 * conns);
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      ConnState& st = state[c];
      net::Client& client = clients[c];
      for (std::size_t i = c; i < n; i += conns) {
        Outcome& o = res.outcomes[i];
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(o.scheduled_ns)));
        net::Request req;
        req.id = o.id;
        o.kind = mix.Make(o.seq, req);
        Stamp(opts, o.kind, req);
        kinds[i].store(static_cast<std::uint8_t>(o.kind),
                       std::memory_order_release);
        o.sent_ns = NowNs();
        if (!client.Send(req)) {
          ++st.transport;
          // Wake the receiver: nothing more will arrive on this socket.
          ::shutdown(client.native_handle(), SHUT_RDWR);
          break;
        }
        o.sent = true;
        st.sent.fetch_add(1, std::memory_order_release);
      }
      st.sender_done.store(true, std::memory_order_release);
    });
    threads.emplace_back([&, c] {
      ConnState& st = state[c];
      net::Client& client = clients[c];
      std::uint64_t got = 0;
      for (;;) {
        if (st.sender_done.load(std::memory_order_acquire) &&
            got >= st.sent.load(std::memory_order_acquire)) {
          break;
        }
        net::Response resp;
        if (!client.Recv(&resp)) {
          if (!st.sender_done.load(std::memory_order_acquire) ||
              got < st.sent.load(std::memory_order_acquire)) {
            ++st.transport;
          }
          break;
        }
        const std::int64_t now = NowNs();
        ++got;
        if (resp.id <= opts.id_base || resp.id > opts.id_base + n) {
          ++st.unknown;
          continue;
        }
        const std::size_t i = resp.id - opts.id_base - 1;
        Outcome& o = res.outcomes[i];
        if (i % conns != c) {
          ++st.unknown;
          continue;
        }
        if (o.answered) {
          ++st.duplicates;
          continue;
        }
        const auto kind =
            static_cast<Kind>(kinds[i].load(std::memory_order_acquire));
        Fill(o, resp, now);
        Confirm(mix, kind, o);
      }
    });
  }
  for (auto& t : threads) t.join();
  res.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  for (const ConnState& st : state) {
    res.transport_errors += st.transport;
    res.duplicate_ids += st.duplicates;
    res.unknown_ids += st.unknown;
  }
  // Only requests that left the generator count as attempted.
  std::erase_if(res.outcomes, [](const Outcome& o) { return !o.sent; });
  return res;
}

PhaseResult RunClosedLoop(Mix& mix, const PhaseOptions& opts,
                          double seconds, std::uint64_t max_requests) {
  PhaseResult res;
  const std::size_t conns =
      std::clamp<std::size_t>(opts.conns, 1, kMaxLoadThreads);
  std::atomic<std::uint64_t> next{0};
  std::vector<PhaseResult> per_conn(conns);
  const std::int64_t t0 = NowNs();
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      PhaseResult& mine = per_conn[c];
      net::Client client(LoadClientOptions());
      if (!client.Connect("127.0.0.1", opts.port)) {
        ++mine.transport_errors;
        return;
      }
      while (NowNs() < end) {
        const std::uint64_t k = next.fetch_add(1);
        if (max_requests != 0 && k >= max_requests) break;
        Outcome o;
        o.id = opts.id_base + k + 1;
        o.seq = opts.first_seq + k;
        net::Request req;
        req.id = o.id;
        o.kind = mix.Make(o.seq, req);
        Stamp(opts, o.kind, req);
        o.scheduled_ns = o.sent_ns = NowNs();
        if (!client.Send(req)) {
          ++mine.transport_errors;
          break;
        }
        o.sent = true;
        net::Response resp;
        const bool got = client.Recv(&resp);
        const std::int64_t now = NowNs();
        if (!got) {
          ++mine.transport_errors;
        } else if (resp.id != o.id) {
          ++mine.unknown_ids;
        } else {
          Fill(o, resp, now);
          Confirm(mix, o.kind, o);
        }
        mine.outcomes.push_back(std::move(o));
        if (!got) break;
      }
    });
  }
  for (auto& t : threads) t.join();
  res.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  for (PhaseResult& p : per_conn) {
    res.transport_errors += p.transport_errors;
    res.unknown_ids += p.unknown_ids;
    for (Outcome& o : p.outcomes) res.outcomes.push_back(std::move(o));
  }
  std::sort(res.outcomes.begin(), res.outcomes.end(),
            [](const Outcome& a, const Outcome& b) { return a.id < b.id; });
  return res;
}

Mix::Mix(const proximity::Workload& workload,
                         std::vector<proximity::StreamEntry> stream,
                         std::size_t write_every, std::uint64_t seed)
    : workload_(workload),
      stream_(std::move(stream)),
      write_every_(write_every),
      seed_(seed) {
  if (stream_.empty()) throw std::invalid_argument("empty query stream");
}

Kind Mix::Make(std::uint64_t seq, net::Request& req) {
  if (write_every_ != 0 && seq % write_every_ == write_every_ - 1) {
    std::lock_guard lock(mu_);
    const std::uint64_t w = writes_++;
    // Writes alternate INSERT and DELETE; a DELETE targets the oldest
    // confirmed insert of this run (an INSERT stands in when none has
    // been confirmed yet).
    if (w % 2 == 1 && !inserted_.empty()) {
      const proximity::VectorId target = inserted_.front();
      inserted_.pop_front();
      const auto slot = static_cast<std::size_t>(target);
      if (target >= 0 && slot < workload_.gold_for.size() &&
          workload_.gold_for[slot] >= 0) {
        ++gold_deletes_;
      }
      req.mutation_op = net::kMutationDelete;
      req.mutation_target = target;
      return Kind::kDelete;
    }
    const std::size_t source = static_cast<std::size_t>(
        proximity::Rng(seed_ + w).Below(workload_.passages.size()));
    req.mutation_op = net::kMutationInsert;
    req.text = "fresh passage " + std::to_string(w) + " " +
               workload_.passages[source];
    return Kind::kInsert;
  }
  req.text = TextAt(seq);
  return Kind::kQuery;
}

void Mix::OnInserted(proximity::VectorId id) {
  {
    std::lock_guard lock(mu_);
    inserted_.push_back(id);
    ++inserts_ok_;
  }
  if (on_write_) on_write_();
}

void Mix::OnDeleted() {
  {
    std::lock_guard lock(mu_);
    ++deletes_ok_;
  }
  if (on_write_) on_write_();
}

std::uint64_t Mix::inserts_ok() const {
  std::lock_guard lock(mu_);
  return inserts_ok_;
}

std::uint64_t Mix::deletes_ok() const {
  std::lock_guard lock(mu_);
  return deletes_ok_;
}

std::uint64_t Mix::gold_deletes() const {
  std::lock_guard lock(mu_);
  return gold_deletes_;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  // Linear interpolation between order statistics.
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

double HighestSupportedPercentile(std::size_t n) {
  if (n < 20) return 0.0;
  // At least ten samples strictly above the percentile's rank.
  return 100.0 * (1.0 - 10.0 / static_cast<double>(n));
}

}  // namespace perfbench
