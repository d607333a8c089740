// served_bench: one served-stack benchmark, end to end and per layer.
//
//   served_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--tiny] [--spans-out PATH]
//
// Boots the real serving stack of the workload in this process (set up
// three times; the median is setup_s), warms it up, then measures over
// loopback with net::Client:
//
//   --trace 0  open loop at the workload's fixed rate (p50_ms, accuracy,
//              context_relevance), then a closed loop at a fixed
//              connection count (qps). Frames carry no trace.
//   --trace 1  a short untraced open loop, then a traced one during
//              which the decorators of layers.h record every request;
//              prints the per-layer metrics and the per-path mean
//              latency budget, and writes the spans to --spans-out.
//
// Latency and throughput figures are medians over the quiet time
// windows of a phase (see Windows below).
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. The exit code is 1 when any correctness check fails.
// Workloads and metrics are described in perfbench/README.md.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "host.h"
#include "layers.h"
#include "llm/answer_model.h"
#include "load.h"
#include "obs/metrics_registry.h"
#include "stacks.h"

namespace perfbench {
namespace {

namespace px = proximity;

constexpr int kSetups = 3;
constexpr std::size_t kClosedConns = 4;
constexpr std::size_t kOpenConns = 2;
constexpr std::size_t kOracleSamples = 64;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (flag == "--workload") {
      a->workload = value();
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      a->trace = value() == "1";
    } else if (flag == "--tiny") {
      a->tiny = true;
    } else if (flag == "--spans-out") {
      a->spans_out = value();
    } else {
      std::fprintf(stderr, "served_bench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

// ---- output helpers -------------------------------------------------

std::string Num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    list_.push_back({name, value, unit});
  }
  const std::vector<Metric>& list() const { return list_; }
  std::string Json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < list_.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + list_[i].name + "\": {\"value\": " + Num(list_[i].value) +
             ", \"unit\": \"" + list_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> list_;
};

double Us(double ns) { return ns / 1e3; }
double Ms(double ns) { return ns / 1e6; }
double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- phases -----------------------------------------------------------

struct Run {
  Args args;
  WorkloadParams params;
  StealMonitor steal;
  std::unique_ptr<Stack> stack;
  Checks checks;
  std::uint64_t next_id = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  PhaseOptions Options(std::size_t conns, bool trace) const {
    PhaseOptions o;
    o.port = stack->port();
    o.conns = conns;
    o.id_base = next_id;
    o.first_seq = next_seq;
    o.trace = trace;
    // The routed oracle check needs the exact-merge distances.
    o.want_distances = stack->medrag();
    return o;
  }

  // Books a finished phase: advances ids, checks the wire contract
  // (every sent id answered exactly once) and prints its counts.
  void Book(const char* name, const PhaseResult& r, bool measured) {
    std::uint64_t max_id = next_id, max_seq = next_seq;
    std::uint64_t unanswered = 0, empty = 0;
    std::uint64_t shed = 0;
    for (const Outcome& o : r.outcomes) {
      max_id = std::max(max_id, o.id);
      max_seq = std::max(max_seq, o.seq + 1);
      if (!o.answered) ++unanswered;
      if (o.ok() && o.kind == Kind::kQuery && o.documents.empty()) ++empty;
      if (o.answered &&
          o.status == px::RequestStatus::kResourceExhausted) {
        ++shed;
      }
    }
    next_id = max_id;
    next_seq = max_seq;
    std::printf("phase %-12s sent=%llu succeeded=%llu failed=%llu "
                "(shed/quota=%llu) wall=%.2fs\n",
                name, static_cast<unsigned long long>(r.sent()),
                static_cast<unsigned long long>(r.succeeded()),
                static_cast<unsigned long long>(r.failed()),
                static_cast<unsigned long long>(shed), r.wall_s);
    const std::string who = std::string("phase ") + name + ": ";
    checks.Expect(r.transport_errors == 0, who + "transport errors");
    checks.Expect(r.duplicate_ids == 0, who + "an id was answered twice");
    checks.Expect(r.unknown_ids == 0, who + "an answer for an unsent id");
    checks.Expect(unanswered == 0, who + "a sent id was never answered");
    checks.Expect(empty == 0, who + "an OK query returned no documents");
    checks.Expect(r.sent() > 0, who + "nothing was sent");
    if (measured) {
      attempted += r.sent();
      failed += r.failed();
    }
  }
};

// Boots the stack kSetups times (tearing down all but the last) and
// records each set-up's seconds (build + start + warm-up) and peak RSS.
void SetUp(Run& run, std::vector<double>* seconds,
           std::vector<double>* peak_mb) {
  for (int s = 0; s < kSetups; ++s) {
    if (run.stack) {
      run.stack->StopAndCheck(run.checks);
      run.stack.reset();
    }
    run.next_id = 0;
    run.next_seq = 0;
    ResetPeakRss();
    const std::int64_t t0 = NowNs();
    run.stack = BootStack(run.params, run.args.seed);
    const PhaseResult warm =
        RunClosedLoop(run.stack->mix(), run.Options(kClosedConns, false),
                      /*seconds=*/60, run.params.warmup_requests);
    seconds->push_back(static_cast<double>(NowNs() - t0) / 1e9);
    peak_mb->push_back(PeakRssMb());
    run.Book("warmup", warm, /*measured=*/false);
  }
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// Latencies (ms) of the answered requests of a phase, optionally one
// kind only.
std::vector<double> LatenciesMs(const PhaseResult& r, int kind = -1) {
  std::vector<double> out;
  for (const Outcome& o : r.outcomes) {
    if (!o.answered) continue;
    if (kind >= 0 && static_cast<int>(o.kind) != kind) continue;
    out.push_back(Ms(static_cast<double>(o.latency_ns())));
  }
  return out;
}

// A phase is cut into kWindows equal spans of wall time. The reference
// host is a VM whose CPU is stolen in bursts of a fraction of a second
// (host.h): each window records the share stolen during it, and a
// reported figure is the median over the quiet windows: those whose
// steal is within the quietest quarter, or below kQuietSteal. A burst
// then moves neither the figure nor its spread, while a slower program
// still moves every window.
constexpr std::size_t kWindows = 24;
constexpr double kQuietSteal = 0.005;

struct Window {
  std::int64_t from_ns = 0;
  std::int64_t to_ns = 0;
  double steal = 0;
  std::vector<const Outcome*> outcomes;
};

template <typename At>
std::vector<Window> Windows(const PhaseResult& r, const StealMonitor& steal,
                            At at) {
  std::vector<Window> w(kWindows);
  if (r.outcomes.empty()) return w;
  std::int64_t lo = at(r.outcomes.front()), hi = lo;
  for (const Outcome& o : r.outcomes) {
    lo = std::min(lo, at(o));
    hi = std::max(hi, at(o));
  }
  const double span = static_cast<double>(hi - lo) + 1.0;
  for (std::size_t k = 0; k < kWindows; ++k) {
    w[k].from_ns = lo + static_cast<std::int64_t>(span * k / kWindows);
    w[k].to_ns = lo + static_cast<std::int64_t>(span * (k + 1) / kWindows);
    w[k].steal = steal.StealShare(w[k].from_ns, w[k].to_ns);
  }
  for (const Outcome& o : r.outcomes) {
    const auto k = static_cast<std::size_t>(
        static_cast<double>(at(o) - lo) / span * kWindows);
    w[std::min(k, kWindows - 1)].outcomes.push_back(&o);
  }
  return w;
}

// Median of value(window) over the quiet windows; prints every window
// as value/steal%, the quiet ones marked with '*'.
template <typename Value>
double QuietMedian(const std::vector<Window>& windows, const char* what,
                   Value value) {
  std::vector<double> steal;
  for (const Window& w : windows) steal.push_back(w.steal);
  const double cut = std::max(Quantile(steal, 0.25), kQuietSteal);
  std::vector<double> kept;
  std::printf("windows %s (value/steal%%, * = quiet):", what);
  for (const Window& w : windows) {
    const std::optional<double> v = value(w);
    if (!v) continue;
    const bool quiet = w.steal <= cut;
    std::printf(" %.4g/%.1f%s", *v, 100 * w.steal, quiet ? "*" : "");
    if (quiet) kept.push_back(*v);
  }
  std::printf("\n");
  return Quantile(std::move(kept), 0.5);
}

// Quiet-window median of the q-quantile of open-loop latency (ms).
double WindowedLatencyMs(const Run& run, const PhaseResult& r, double q) {
  std::string what = "p";
  what += Num(q * 100);
  what += "_ms";
  return QuietMedian(
      Windows(r, run.steal, [](const Outcome& o) { return o.scheduled_ns; }),
      what.c_str(), [q](const Window& w) -> std::optional<double> {
        std::vector<double> ms;
        for (const Outcome* o : w.outcomes) {
          if (o->answered) {
            ms.push_back(Ms(static_cast<double>(o->latency_ns())));
          }
        }
        if (ms.empty()) return std::nullopt;
        return Quantile(std::move(ms), q);
      });
}

// Quiet-window median of OK answers per second.
double WindowedQps(const Run& run, const PhaseResult& r) {
  return QuietMedian(
      Windows(r, run.steal, [](const Outcome& o) { return o.recv_ns; }),
      "qps", [](const Window& w) -> std::optional<double> {
        double ok = 0;
        for (const Outcome* o : w.outcomes) ok += o->ok() ? 1 : 0;
        return ok * 1e9 / static_cast<double>(w.to_ns - w.from_ns);
      });
}

void PrintLatency(const char* what, const std::vector<double>& ms) {
  const double top = HighestSupportedPercentile(ms.size());
  std::printf("%s: n=%zu p50=%.4fms p99=%.4fms p%.3g=%.4fms "
              "(highest percentile with >=10 samples beyond it)\n",
              what, ms.size(), Quantile(ms, 0.5), Quantile(ms, 0.99), top,
              Quantile(ms, top / 100.0));
}

// Answer quality of the OK queries: macro averages over questions (each
// question weighs the same however popular it is), judged with the
// stratified difficulty table so the verdict is a function of the
// documents served.
void Quality(Run& run, const std::vector<const PhaseResult*>& phases,
             double* accuracy, double* relevance) {
  const px::Workload& w = run.stack->workload();
  const px::AnswerModel model(run.stack->medrag() ? px::MedragAnswerParams()
                                                  : px::MmluAnswerParams());
  const std::vector<double> difficulty =
      px::MakeDifficultyTable(w.questions.size(), run.args.seed);
  struct Acc {
    double correct = 0, relevance = 0, n = 0;
  };
  std::map<std::size_t, Acc> per_question;
  for (const PhaseResult* p : phases) {
    for (const Outcome& o : p->outcomes) {
      if (!o.ok() || o.kind != Kind::kQuery) continue;
      const std::size_t q = run.stack->mix().QuestionAt(o.seq);
      const px::ContextJudgment j =
          px::JudgeContext(o.documents, w.questions[q], w);
      Acc& a = per_question[q];
      a.correct += model.AnswerCorrectly(j, difficulty[q]) ? 1 : 0;
      a.relevance += j.relevance;
      a.n += 1;
    }
  }
  double acc = 0, rel = 0;
  for (const auto& [q, a] : per_question) {
    acc += a.correct / a.n;
    rel += a.relevance / a.n;
  }
  const double n = static_cast<double>(per_question.size());
  *accuracy = Ratio(acc, n);
  *relevance = Ratio(rel, n);
}

// The routed answer of a miss must be bit-identical to a single-process
// flat scan over the whole corpus (the exact merge of DESIGN.md §14).
void OracleCheck(Run& run, const PhaseResult& phase) {
  const px::FlatIndex* oracle = run.stack->oracle();
  if (oracle == nullptr) return;
  std::vector<const Outcome*> candidates;
  for (const Outcome& o : phase.outcomes) {
    const bool exact = o.ok() && o.kind == Kind::kQuery &&
                       (o.flags & px::net::kFlagHasDistances) != 0 &&
                       (o.flags & px::net::kFlagCoalesced) == 0;
    if (exact) candidates.push_back(&o);
  }
  run.checks.Expect(!candidates.empty(), "oracle: no exact-merge answers");
  px::Rng rng(run.args.seed ^ 0x5eedULL);
  rng.Shuffle(candidates);
  if (candidates.size() > kOracleSamples) candidates.resize(kOracleSamples);
  std::size_t mismatches = 0;
  for (const Outcome* o : candidates) {
    const auto query = run.stack->embedder().Embed(
        run.stack->mix().TextAt(o->seq));
    const auto truth = oracle->Search(query, o->documents.size());
    bool same = truth.size() == o->documents.size();
    for (std::size_t i = 0; same && i < truth.size(); ++i) {
      same = truth[i].id == o->documents[i] &&
             std::memcmp(&truth[i].distance, &o->distances[i],
                         sizeof(float)) == 0;
    }
    mismatches += same ? 0 : 1;
  }
  std::printf("oracle: %zu sampled routed misses, %zu differ from the flat "
              "oracle\n",
              candidates.size(), mismatches);
  run.checks.Expect(mismatches == 0,
                    "oracle: a routed miss differs from the flat top-k");
}

// ---- end-to-end run ---------------------------------------------------

Metrics EndToEnd(Run& run, double setup_s, std::vector<double> peak_mb) {
  const double open_s = 0.6 * run.args.seconds;
  const double closed_s = 0.4 * run.args.seconds;
  const PhaseResult open =
      RunOpenLoop(run.stack->mix(), run.Options(kOpenConns, false),
                  run.params.offered_qps, open_s, run.args.seed);
  run.Book("open", open, true);
  const PhaseResult closed =
      RunClosedLoop(run.stack->mix(),
                    run.Options(kClosedConns, false), closed_s,
                    0);
  run.Book("closed", closed, true);

  const std::vector<double> lat = LatenciesMs(open);
  PrintLatency("open-loop latency (from scheduled send)", lat);
  std::vector<double> lag;
  for (const Outcome& o : open.outcomes) {
    lag.push_back(Us(static_cast<double>(o.sent_ns - o.scheduled_ns)));
  }
  std::printf("open-loop offered=%.0f/s achieved=%.1f/s lag p99=%.1fus\n",
              run.params.offered_qps,
              static_cast<double>(open.outcomes.size()) / open.wall_s,
              Quantile(lag, 0.99));
  const double qps = WindowedQps(run, closed);
  const double p50 = WindowedLatencyMs(run, open, 0.5);
  const double p99 = WindowedLatencyMs(run, open, 0.99);
  std::printf("closed-loop conns=%zu qps=%.1f (whole phase %.1f)\n",
              kClosedConns, qps,
              static_cast<double>(closed.succeeded()) / closed.wall_s);
  std::printf("reported (median of quiet windows of %zu): p50=%.4fms p99=%.4fms "
              "qps=%.1f\n",
              kWindows, p50, p99, qps);
  if (run.params.write_every != 0) {
    PrintLatency("open-loop INSERT latency",
                 LatenciesMs(open, static_cast<int>(Kind::kInsert)));
  }

  double accuracy = 0, relevance = 0;
  Quality(run, {&open, &closed}, &accuracy, &relevance);
  OracleCheck(run, open);

  // The last set-up's peak also covers the measured phases.
  peak_mb.back() = PeakRssMb();
  Metrics m;
  m.Add("setup_s", setup_s, "s");
  m.Add("peak_rss_mb", Median(std::move(peak_mb)), "MB");
  m.Add("qps", qps, "1/s");
  m.Add("p50_ms", p50, "ms");
  m.Add("accuracy", accuracy, "ratio");
  m.Add("context_relevance", relevance, "ratio");
  return m;
}

// ---- traced run -------------------------------------------------------

struct BudgetRow {
  std::string path;
  std::size_t n = 0;
  double client_us = 0;
  std::vector<std::pair<std::string, double>> rows;  // name, mean us
};

// Per-request join of the client outcome with its sink records. On the
// routed workload a request has one record per leg (and per hedge):
// within a group the first completion wins, across groups the slowest
// leg is the critical one.
struct Joined {
  const Outcome* client = nullptr;
  const SinkRecord* sink = nullptr;  // critical leg
};

std::vector<Joined> Join(const PhaseResult& phase,
                         const std::vector<SinkRecord>& sinks) {
  std::unordered_map<std::uint64_t, std::map<std::uint32_t,
                                             const SinkRecord*>>
      by_id;
  for (const SinkRecord& s : sinks) {
    const SinkRecord*& best = by_id[s.id][s.group];
    if (best == nullptr || s.end_ns < best->end_ns) best = &s;
  }
  std::vector<Joined> out;
  for (const Outcome& o : phase.outcomes) {
    if (!o.answered) continue;
    Joined j;
    j.client = &o;
    const auto it = by_id.find(o.id);
    if (it != by_id.end()) {
      for (const auto& [g, s] : it->second) {
        if (j.sink == nullptr ||
            s->end_ns - s->start_ns > j.sink->end_ns - j.sink->start_ns) {
          j.sink = s;
        }
      }
    }
    out.push_back(j);
  }
  return out;
}

const px::LatencyHistogram* Hist(const px::obs::MetricsSnapshot& snap,
                                 const char* name) {
  return snap.FindHistogram(name);
}

double HistQuantileUs(const px::obs::MetricsSnapshot& snap, const char* name,
                      double q) {
  const auto* h = Hist(snap, name);
  return h != nullptr && h->count() > 0 ? Us(h->QuantileNanos(q)) : 0.0;
}

double HistSumNs(const px::obs::MetricsSnapshot& snap, const char* name) {
  const auto* h = Hist(snap, name);
  return h != nullptr ? h->MeanNanos() * static_cast<double>(h->count())
                      : 0.0;
}

std::string SpansJson(const Run& run, const PhaseResult& phase,
                      const std::vector<Joined>& joined,
                      const std::vector<SinkRecord>& sinks,
                      const std::vector<BudgetRow>& budget) {
  const std::int64_t t0 =
      phase.outcomes.empty() ? 0 : phase.outcomes.front().scheduled_ns;
  std::ostringstream os;
  os << "{\"fingerprint\": " << Fingerprint(run.args.seed, run.args.workload) << ",\n\"budget\": [";
  for (std::size_t b = 0; b < budget.size(); ++b) {
    os << (b ? ",\n" : "\n") << "{\"path\": \"" << budget[b].path
       << "\", \"n\": " << budget[b].n
       << ", \"client_mean_us\": " << Num(budget[b].client_us);
    for (const auto& [name, us] : budget[b].rows) {
      os << ", \"" << name << "\": " << Num(us);
    }
    os << "}";
  }
  os << "],\n\"spans\": [";
  std::uint64_t next_span = 1;
  bool first = true;
  const auto span = [&](const char* name, std::uint64_t id,
                        std::uint64_t parent, std::int64_t start,
                        std::int64_t end) {
    const std::uint64_t sid = next_span++;
    os << (first ? "\n" : ",\n") << "{\"name\": \"" << name
       << "\", \"id\": " << id << ", \"span\": " << sid
       << ", \"parent\": " << parent << ", \"start_ns\": " << start - t0
       << ", \"end_ns\": " << end - t0 << "}";
    first = false;
    return sid;
  };
  std::unordered_map<std::uint64_t, std::uint64_t> client_span;
  for (const Joined& j : joined) {
    const Outcome& o = *j.client;
    span("load.lag", o.id, 0, o.scheduled_ns, o.sent_ns);
    client_span[o.id] = span("client.call", o.id, 0, o.sent_ns, o.recv_ns);
  }
  for (const SinkRecord& s : sinks) {
    const auto it = client_span.find(s.id);
    if (it == client_span.end()) continue;
    const std::uint64_t sid =
        span("rag.sink", s.id, it->second, s.start_ns, s.end_ns);
    span("rag.queue", s.id, sid, s.start_ns, s.start_ns + s.queue_ns);
    if (s.index_end_ns != 0) {
      span("index.search", s.id, sid, s.index_start_ns, s.index_end_ns);
    }
  }
  os << "]}\n";
  return os.str();
}

Metrics Traced(Run& run) {
  auto& registry = px::obs::MetricsRegistry::Default();
  // Untraced reference for the tracing overhead.
  const PhaseResult plain =
      RunOpenLoop(run.stack->mix(), run.Options(kOpenConns, false),
                  run.params.offered_qps, 0.3 * run.args.seconds,
                  run.args.seed);
  run.Book("open-plain", plain, true);

  registry.Reset();  // the stack is idle between phases
  const StackCounters before = run.stack->counters();
  run.stack->recorder().set_enabled(true);
  const PhaseResult traced =
      RunOpenLoop(run.stack->mix(), run.Options(kOpenConns, true),
                  run.params.offered_qps, 0.7 * run.args.seconds,
                  run.args.seed + 1);
  run.stack->recorder().set_enabled(false);
  run.Book("open-traced", traced, true);
  const px::obs::MetricsSnapshot snap = registry.Snapshot();
  const StackCounters after = run.stack->counters();
  const Recorder::Data rec = run.stack->recorder().Take();
  const std::vector<Joined> joined = Join(traced, rec.sinks);
  const bool routed = run.stack->medrag();

  // Per-request samples (us).
  std::vector<double> wire, queue, sink_all, lag;
  std::vector<double> by_path[kNumPaths];
  std::size_t queries = 0, coalesced = 0, answer_hits = 0, doc_hits = 0;
  for (const SinkRecord& s : rec.sinks) {
    by_path[static_cast<std::size_t>(s.path)].push_back(
        Us(static_cast<double>(s.end_ns - s.start_ns)));
    if (s.path == Path::kWrite || s.path == Path::kFailed) continue;
    ++queries;
    queue.push_back(Us(static_cast<double>(s.queue_ns)));
    coalesced += s.path == Path::kCoalesced ? 1 : 0;
    answer_hits += s.path == Path::kAnswerHit ? 1 : 0;
    doc_hits += s.path == Path::kDocHit ? 1 : 0;
  }
  for (const Joined& j : joined) {
    lag.push_back(
        Us(static_cast<double>(j.client->sent_ns - j.client->scheduled_ns)));
    if (j.sink == nullptr) continue;
    const double call = static_cast<double>(j.client->recv_ns -
                                            j.client->sent_ns);
    const double sink = static_cast<double>(j.sink->end_ns -
                                            j.sink->start_ns);
    wire.push_back(Us(call - sink));
    sink_all.push_back(Us(sink));
  }

  // Index layer.
  std::vector<double> batch_us;
  double search_ns = 0, searched = 0;
  for (const SearchRecord& s : rec.searches) {
    batch_us.push_back(Us(static_cast<double>(s.end_ns - s.start_ns)));
    search_ns += static_cast<double>(s.end_ns - s.start_ns);
    searched += static_cast<double>(s.queries);
  }
  const auto us_of = [](const std::vector<std::int64_t>& ns) {
    std::vector<double> out;
    for (const std::int64_t v : ns) out.push_back(Us(static_cast<double>(v)));
    return out;
  };
  std::vector<double> consolidate_ms;
  for (const std::int64_t v : rec.consolidates) {
    consolidate_ms.push_back(Ms(static_cast<double>(v)));
  }

  // Layer estimates shared by every path (batch-wide work: one
  // EmbedBatch and one probe loop per flush; every request of the flush
  // waits for all of it).
  const double batches =
      static_cast<double>(snap.CounterValue("serve.batches"));
  const double embed_per_batch_us =
      Us(Ratio(HistSumNs(snap, "stage.embed_ns"),
               static_cast<double>(
                   Hist(snap, "stage.embed_ns")
                       ? Hist(snap, "stage.embed_ns")->count()
                       : 0)));
  const double probe_per_batch_us =
      Us(Ratio(HistSumNs(snap, "stage.cache_lookup_ns"), batches));
  const double router_mean_us =
      routed ? Us(Hist(snap, "cluster.request_ns")
                      ? Hist(snap, "cluster.request_ns")->MeanNanos()
                      : 0.0)
             : 0.0;

  // Per-path mean-latency budget; rows add up to the client mean.
  const auto budget_for = [&](const std::string& name,
                              const std::vector<const Joined*>& js) {
    BudgetRow b;
    b.path = name;
    b.n = js.size();
    if (js.empty()) return b;
    double client = 0, lag_sum = 0, sink = 0, q = 0, index = 0;
    for (const Joined* j : js) {
      client += static_cast<double>(j->client->latency_ns());
      lag_sum += static_cast<double>(j->client->sent_ns -
                                     j->client->scheduled_ns);
      sink += static_cast<double>(j->sink->end_ns - j->sink->start_ns);
      q += static_cast<double>(j->sink->queue_ns);
      index += static_cast<double>(j->sink->index_end_ns -
                                   j->sink->index_start_ns);
    }
    const double n = static_cast<double>(js.size());
    b.client_us = Us(client / n);
    const double call_us = Us((client - lag_sum) / n);
    const double sink_us = Us(sink / n);
    // The router's own time: its request span minus the critical leg.
    const double router_us = routed ? router_mean_us - sink_us : 0.0;
    b.rows = {
        {"load.lag_us", Us(lag_sum / n)},
        {"net.wire_us", call_us - sink_us - router_us},
        {"cluster.router_us", router_us},
        {"rag.queue_wait_us", Us(q / n)},
        {"embed.batch_est_us", embed_per_batch_us},
        {"cache.probe_est_us", probe_per_batch_us},
        {"index.search_us", Us(index / n)},
    };
    double attributed = 0;
    for (const auto& [row, us] : b.rows) attributed += us;
    b.rows.emplace_back("rag.unattributed_us", b.client_us - attributed);
    return b;
  };
  std::vector<std::vector<const Joined*>> path_js(kNumPaths);
  std::vector<const Joined*> all_js;
  for (const Joined& j : joined) {
    if (j.sink == nullptr) continue;
    Path p = j.sink->path;
    if (p == Path::kCoalesced) p = Path::kMiss;
    path_js[static_cast<std::size_t>(p)].push_back(&j);
    if (p != Path::kFailed) all_js.push_back(&j);
  }
  std::vector<BudgetRow> budget;
  for (const Path p : {Path::kAnswerHit, Path::kDocHit, Path::kMiss,
                       Path::kWrite}) {
    BudgetRow b = budget_for(PathName(p), path_js[static_cast<std::size_t>(p)]);
    if (b.n > 0) budget.push_back(std::move(b));
  }
  budget.push_back(budget_for("all", all_js));
  std::printf("per-path mean latency budget (us; rows sum to client "
              "mean):\n");
  for (const BudgetRow& b : budget) {
    std::printf("  %-10s n=%-6zu client=%9.1f", b.path.c_str(), b.n,
                b.client_us);
    for (const auto& [name, us] : b.rows) {
      std::printf(" %s=%.1f", name.c_str(), us);
    }
    std::printf("\n");
  }
  const double unattributed = budget.back().rows.back().second;

  // Layer stress summary the workloads were chosen for.
  const BudgetRow& all = budget.back();
  double index_row = 0;
  for (const auto& [name, us] : all.rows) {
    if (name == "index.search_us") index_row = us;
  }
  std::printf("stress: hit ratio %.3f of %zu queries; index %.1f%% of mean "
              "sink; index+router %.1f%% of mean client\n",
              Ratio(static_cast<double>(answer_hits + doc_hits),
                    static_cast<double>(queries)),
              queries, 100 * Ratio(index_row, Mean(sink_all)),
              100 * Ratio(index_row + (routed ? router_mean_us -
                                                    Mean(sink_all)
                                              : 0.0),
                          all.client_us));

  const double plain_p50 = WindowedLatencyMs(run, plain, 0.5);
  const double traced_p50 = WindowedLatencyMs(run, traced, 0.5);
  PrintLatency("traced open-loop latency", LatenciesMs(traced));
  const double lookups =
      static_cast<double>(snap.CounterValue("cache.lookups"));
  const double row_bytes =
      static_cast<double>(run.stack->embedder().dim() * sizeof(float));
  const double client_requests = static_cast<double>(traced.outcomes.size());
  const double cluster_queries =
      static_cast<double>(after.cluster_queries - before.cluster_queries);
  const double hedges =
      static_cast<double>(after.cluster_hedges - before.cluster_hedges);
  const std::vector<double> writes_ms = [&] {
    std::vector<double> w = LatenciesMs(traced, static_cast<int>(Kind::kInsert));
    const std::vector<double> d =
        LatenciesMs(traced, static_cast<int>(Kind::kDelete));
    w.insert(w.end(), d.begin(), d.end());
    return w;
  }();
  const double cluster_req_p50 =
      HistQuantileUs(snap, "cluster.request_ns", 0.5);
  const double cluster_leg_p50 = HistQuantileUs(snap, "cluster.leg_ns", 0.5);

  Metrics m;
  m.Add("net.wire_p50_us", Quantile(wire, 0.5), "us");
  m.Add("net.wire_mean_us", Mean(wire), "us");
  m.Add("rag.queue_wait_p50_us", Quantile(queue, 0.5), "us");
  m.Add("rag.queue_wait_mean_us", Mean(queue), "us");
  {
    const auto* h = Hist(snap, "serve.batch_size");
    m.Add("rag.batch_size_mean", h != nullptr ? h->MeanNanos() : 0.0, "req");
  }
  m.Add("rag.answer_hit_p50_us",
        Quantile(by_path[static_cast<std::size_t>(Path::kAnswerHit)], 0.5),
        "us");
  m.Add("rag.doc_hit_p50_us",
        Quantile(by_path[static_cast<std::size_t>(Path::kDocHit)], 0.5),
        "us");
  {
    std::vector<double> miss = by_path[static_cast<std::size_t>(Path::kMiss)];
    const auto& co = by_path[static_cast<std::size_t>(Path::kCoalesced)];
    miss.insert(miss.end(), co.begin(), co.end());
    m.Add("rag.miss_p50_us", Quantile(miss, 0.5), "us");
  }
  m.Add("rag.coalesced_ratio",
        Ratio(static_cast<double>(coalesced), static_cast<double>(queries)),
        "ratio");
  m.Add("rag.unattributed_mean_us", unattributed, "us");
  m.Add("embed.batch_p50_us", HistQuantileUs(snap, "stage.embed_ns", 0.5),
        "us");
  m.Add("embed.mean_us_per_request",
        Us(Ratio(HistSumNs(snap, "stage.embed_ns"), client_requests)), "us");
  m.Add("cache.answer_hit_ratio",
        Ratio(static_cast<double>(answer_hits), static_cast<double>(queries)),
        "ratio");
  m.Add("cache.doc_hit_ratio",
        Ratio(static_cast<double>(doc_hits), static_cast<double>(queries)),
        "ratio");
  m.Add("cache.ratio_base", static_cast<double>(queries), "count");
  m.Add("cache.lookup_p50_us",
        HistQuantileUs(snap, "stage.cache_lookup_ns", 0.5), "us");
  m.Add("cache.scan_p50_us", HistQuantileUs(snap, "stage.cache_scan_ns", 0.5),
        "us");
  m.Add("cache.scan_bytes_per_lookup",
        Ratio(static_cast<double>(snap.CounterValue("cache.keys_scanned")) *
                  row_bytes,
              lookups),
        "B");
  m.Add("cache.stale_ratio",
        Ratio(static_cast<double>(snap.CounterValue("cache.stale_hits")),
              lookups),
        "ratio");
  m.Add("cache.evictions_per_insert",
        Ratio(static_cast<double>(snap.CounterValue("cache.evictions")),
              static_cast<double>(snap.CounterValue("cache.insertions"))),
        "ratio");
  m.Add("index.search_batch_p50_us", Quantile(batch_us, 0.5), "us");
  m.Add("index.search_batch_p99_us", Quantile(batch_us, 0.99), "us");
  m.Add("index.queries_per_batch",
        Ratio(searched, static_cast<double>(rec.searches.size())), "req");
  m.Add("index.search_us_per_query", Us(Ratio(search_ns, searched)), "us");
  m.Add("index.bytes_per_query", run.stack->IndexBytesPerQuery(), "B");
  m.Add("index.insert_p50_us", Quantile(us_of(rec.inserts), 0.5), "us");
  m.Add("index.delete_p50_us", Quantile(us_of(rec.deletes), 0.5), "us");
  m.Add("index.consolidate_ms", Quantile(consolidate_ms, 0.5), "ms");
  m.Add("cluster.request_p50_us", cluster_req_p50, "us");
  m.Add("cluster.leg_p50_us", cluster_leg_p50, "us");
  m.Add("cluster.overhead_p50_us",
        routed ? cluster_req_p50 - cluster_leg_p50 : 0.0, "us");
  m.Add("cluster.legs_per_query",
        Ratio(static_cast<double>(after.cluster_legs - before.cluster_legs),
              cluster_queries),
        "ratio");
  m.Add("cluster.hedge_ratio", Ratio(hedges, cluster_queries), "ratio");
  m.Add("cluster.hedge_win_ratio",
        Ratio(static_cast<double>(after.cluster_hedge_wins -
                                  before.cluster_hedge_wins),
              hedges),
        "ratio");
  m.Add("cluster.retries",
        static_cast<double>(after.cluster_retries - before.cluster_retries),
        "count");
  m.Add("tenant.quota_shed",
        static_cast<double>(after.quota_shed - before.quota_shed), "count");
  // The open-loop tail: too sensitive to the shared host to hold an
  // end-to-end bound, so it is reported here (see README.md).
  m.Add("load.p99_ms", WindowedLatencyMs(run, traced, 0.99), "ms");
  m.Add("load.lag_p99_us", Quantile(lag, 0.99), "us");
  m.Add("load.achieved_qps", client_requests / traced.wall_s, "1/s");
  m.Add("obs.trace_overhead_pct",
        100.0 * (Ratio(traced_p50, plain_p50) - 1.0), "%");
  m.Add("write.p50_ms", Quantile(writes_ms, 0.5), "ms");
  m.Add("write.p99_ms", Quantile(writes_ms, 0.99), "ms");

  if (!run.args.spans_out.empty()) {
    std::ofstream out(run.args.spans_out);
    out << SpansJson(run, traced, joined, rec.sinks, budget);
    std::printf("wrote %s\n", run.args.spans_out.c_str());
  }
  return m;
}

int Main(int argc, char** argv) {
  Run run;
  if (!ParseArgs(argc, argv, &run.args)) {
    std::fprintf(stderr,
                 "usage: served_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--spans-out PATH]\n");
    return 2;
  }
  run.params = ParamsFor(run.args.workload, run.args.tiny);
  std::printf("fingerprint: %s\n", Fingerprint(run.args.seed, run.args.workload).c_str());

  std::vector<double> setups, peak_mb;
  SetUp(run, &setups, &peak_mb);
  std::printf("setup_s runs:");
  for (const double s : setups) std::printf(" %.3f", s);
  std::printf("\n");

  Metrics m = run.args.trace ? Traced(run)
                             : EndToEnd(run, Median(setups), peak_mb);
  run.stack->StopAndCheck(run.checks);
  run.stack.reset();

  for (const std::string& f : run.checks.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  for (const Metric& x : m.list()) {
    std::printf("metric %-30s %14.6g %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  }
  const bool correct = run.checks.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed), m.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "served_bench: %s\n", e.what());
    return 1;
  }
}
