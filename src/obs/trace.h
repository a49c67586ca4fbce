// Stage tracing: ScopedSpan wraps one pipeline stage and records a
// SpanRecord (wall time, process + thread CPU time, item count, parent
// stage) into the registry on scope exit. A null registry makes the
// span a complete no-op, so instrumented stages cost one null check
// when observability is off.
//
// Spans nest through the registry's span stack; open/close must be LIFO
// per registry, which holds as long as spans are opened on the
// pipeline-driving thread (the Study call path). Worker threads never
// open spans — they emit flat begin/end events into the flight recorder
// (obs::ScopedTrace, trace_buffer.h) instead.
//
// When the registry has a TraceBuffer armed, every span additionally
// emits a begin/end event pair so main-thread stages appear on the
// Chrome trace timeline alongside the worker events.
//
// A span can also observe its wall time into a registry histogram on
// close. Phase histograms (e.g. cbwt_netflow_join_spill_seconds) make a
// speedup visible in run_report() and on the live inspector's /metrics
// without diffing span logs. Timing lives here because obs owns every
// clock read in the tree (cbwt-lint wall-clock / steady-clock rules).
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <span>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace cbwt::obs {

class ScopedSpan {
 public:
  /// Opens the span; `registry == nullptr` disables it entirely. A
  /// non-empty `histogram` names a registry histogram that receives the
  /// span's wall seconds once, on close; `bounds` is consulted on the
  /// histogram's first creation only.
  ScopedSpan(Registry* registry, std::string_view name, std::string_view histogram = {},
             std::span<const double> bounds = {});
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Stage-defined item count (requests classified, records emitted...).
  void set_items(std::uint64_t items) noexcept { items_ = items; }
  void add_items(std::uint64_t items) noexcept { items_ += items; }

 private:
  Registry* registry_;
  Histogram* histogram_ = nullptr;
  std::string name_;
  std::string parent_;
  std::uint64_t depth_ = 0;
  std::uint64_t items_ = 0;
  std::chrono::steady_clock::time_point wall_begin_{};
  std::clock_t process_cpu_begin_{};
  double thread_cpu_begin_ = 0.0;
};

}  // namespace cbwt::obs
