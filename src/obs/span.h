// RAII span tracing: tag a scope with a Stage; on destruction the span's
// wall duration is recorded into the stage's histogram in the default
// MetricsRegistry.
//
// When the opening thread carries an active TraceContext (obs/trace.h),
// the span additionally joins that request's end-to-end trace as a
// causally-linked child — existing instrumentation sites become trace
// emitters with no changes at the call site.
//
// With PROXIMITY_OBS_ENABLED=0 the Span constructor/destructor are empty
// inline functions and the compiler erases them — the instrumented hot
// paths (cache scan, index search) pay nothing.
#pragma once

#include <chrono>
#include <cstdint>

#include "obs/metrics_registry.h"
#include "obs/stage.h"
#include "obs/trace.h"

namespace proximity::obs {

#if PROXIMITY_OBS_ENABLED

class Span {
 public:
  explicit Span(Stage stage) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Stage stage_;
  std::chrono::steady_clock::time_point start_;
  /// When the opening thread carried an active TraceContext, the span
  /// also joins that trace: `trace_parent_` is the inherited context,
  /// `trace_span_` this span's own id (pushed as the thread context so
  /// nested spans parent under it; restored in the destructor).
  TraceContext trace_parent_;
  std::uint64_t trace_span_ = 0;
};

#else  // PROXIMITY_OBS_ENABLED == 0: spans compile to nothing

class Span {
 public:
  explicit Span(Stage) noexcept {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

#endif  // PROXIMITY_OBS_ENABLED

}  // namespace proximity::obs
