#include "obs/span.h"

namespace proximity::obs {

#if PROXIMITY_OBS_ENABLED

namespace {

Nanos ToNanos(std::chrono::steady_clock::duration d) noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

}  // namespace

Span::Span(Stage stage) noexcept
    : stage_(stage),
      start_(std::chrono::steady_clock::now()),
      trace_parent_(CurrentTraceContext()) {
  if (trace_parent_.active()) {
    trace_span_ = NewSpanId();
    SetCurrentTraceContext({trace_parent_.trace_id, trace_span_});
  }
}

Span::~Span() {
  const auto end = std::chrono::steady_clock::now();
  const Nanos duration = ToNanos(end - start_);
  MetricsRegistry::Default().RecordStage(stage_, duration);

  if (trace_parent_.active()) {
    TraceSpanRecord record;
    record.trace_id = trace_parent_.trace_id;
    record.span_id = trace_span_;
    record.parent_id = trace_parent_.span_id;
    record.op = TraceOpFromStage(stage_);
    record.start_ns = TraceRelNanos(start_);
    record.duration_ns = duration;
    EmitTraceSpan(record);
    SetCurrentTraceContext(trace_parent_);
  }
}

#endif  // PROXIMITY_OBS_ENABLED

}  // namespace proximity::obs
