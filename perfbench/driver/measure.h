// Measurement plumbing of the benchmark driver: process clocks and
// /proc readings, the per-layer call timer, row digests and a small JSON
// writer that keeps every digit of a measured number.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

namespace obs = cbwt::obs;

/// Seconds on the steady clock since an arbitrary epoch.
[[nodiscard]] double now_s();

/// User + system CPU seconds of the whole process (all threads).
[[nodiscard]] double process_cpu_s();

/// VmHWM of the process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Resets VmHWM to the current RSS (/proc/self/clear_refs), so the next
/// peak_rss_mb() reads the peak of the work in between. Where the kernel
/// refuses, the peak also covers earlier work.
void reset_peak_rss();

/// write_bytes of /proc/self/io: bytes this process sent to storage.
[[nodiscard]] std::uint64_t disk_write_bytes();

/// Times the benchmark's calls into a layer's public entry points.
///
/// Disabled, it only runs the call: the timed runs stay untraced. Enabled,
/// it accumulates wall and process CPU seconds per metric name and opens
/// an obs span "perfbench/<metric>" on the attached registry around the
/// call, so the program's own spans nest under it.
class LayerClock {
 public:
  LayerClock() = default;
  explicit LayerClock(obs::Registry* registry) : enabled_(true), registry_(registry) {}

  template <class F>
  decltype(auto) call(std::string_view metric, F&& f) {
    if (!enabled_) return f();
    Scope scope(*this, metric);
    return f();
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Registry the call spans go to from now on (the current Study's).
  void attach(obs::Registry* registry) noexcept { registry_ = registry; }
  /// Accumulated process CPU seconds of `metric` (0 if never called).
  [[nodiscard]] double cpu(std::string_view metric) const;
  /// Every wall sample of `metric`, in call order.
  [[nodiscard]] const std::vector<double>& samples(std::string_view metric) const;
  /// Sum of all top-level call walls (calls are never nested).
  [[nodiscard]] double total_wall() const noexcept { return total_wall_; }

 private:
  struct Scope {
    Scope(LayerClock& clock, std::string_view metric);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    LayerClock& clock;
    std::string metric;
    obs::ScopedSpan span;
    double wall_begin;
    double cpu_begin;
  };

  bool enabled_ = false;
  obs::Registry* registry_ = nullptr;
  std::map<std::string, std::vector<double>, std::less<>> walls_;
  std::map<std::string, double, std::less<>> cpus_;
  double total_wall_ = 0.0;
};

/// Result rows of one operation and their FNV-1a digest.
class Rows {
 public:
  void add(std::string_view label, const std::vector<std::string>& fields);
  [[nodiscard]] std::string digest() const;

 private:
  std::string text_;
};

/// Exact decimal form of a measured double (shortest round-trip).
[[nodiscard]] std::string num(double value);
[[nodiscard]] std::string num(std::uint64_t value);

/// Minimal JSON object builder; raw() nests objects and arrays.
class JsonObject {
 public:
  JsonObject& add(std::string_view key, double value);
  JsonObject& add(std::string_view key, std::uint64_t value);
  JsonObject& add(std::string_view key, bool value);
  JsonObject& add(std::string_view key, std::string_view value);
  JsonObject& add(std::string_view key, const char* value) {
    return add(key, std::string_view(value));
  }
  /// Inserts `json` verbatim as the value of `key`.
  JsonObject& raw(std::string_view key, std::string_view json);
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view name);
  std::string body_;
};

[[nodiscard]] std::string json_string(std::string_view text);

/// Median of `values` (0 for none).
[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
