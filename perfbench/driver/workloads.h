// The benchmark's three workloads, each a fixed-seed core::Study job:
//
//   extension_study    world scale 0.08 in memory: dataset -> pDNS ->
//                      classify -> completed IPs -> geo -> flows -> EU28
//                      confinement -> six what-if scenarios -> one
//                      in-memory ISP-day. One operation per job.
//   isp_table8_store   world scale 0.01, store-backed, NetFlow scale 1e-3:
//                      all 16 ISP-days of Table 8 through the out-of-core
//                      join. One operation per ISP-day.
//   checkpoint_resume  world scale 0.08: a fresh Study resumed from a
//                      saved checkpoint runs classify -> geo -> flows ->
//                      EU28 confinement + Table 2. One operation per job.
//
// A workload splits its work into setup() (timed as setup_s) and job()
// (the timed job). Every operation returns digests of its result rows;
// the runner checks them (see main.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "measure.h"
#include "obs/metrics.h"
#include "obs/trace_buffer.h"

namespace perfbench {

/// Span walls, self times and summed counters/gauges of every registry
/// a pass attached to a Study.
class Harvest {
 public:
  /// Adds `registry`'s spans, counters and gauges to the totals.
  void absorb(const obs::Registry& registry);
  /// Summed wall seconds of spans named `name`.
  [[nodiscard]] double span(const std::string& name) const;
  /// Summed counter or gauge value (0 if absent).
  [[nodiscard]] double value(const std::string& name) const;
  /// Span name -> summed wall minus the wall of its child spans.
  [[nodiscard]] const std::map<std::string, double>& self_times() const noexcept {
    return self_;
  }

 private:
  std::map<std::string, double> wall_;
  std::map<std::string, double> self_;
  std::map<std::string, double> values_;
};

/// One run of setups and jobs at one thread count, traced or not.
struct Pass {
  Pass(unsigned thread_count, bool traced)
      : threads(thread_count),
        clock(traced ? LayerClock(nullptr) : LayerClock()),
        trace(traced ? std::make_unique<obs::TraceBuffer>() : nullptr) {}

  unsigned threads;
  /// Enabled in traced passes; workloads attach each Study's registry.
  LayerClock clock;
  /// The flight recorder every Study of a traced pass is armed with.
  std::unique_ptr<obs::TraceBuffer> trace;
  Harvest harvest;
  /// Per-layer figures a workload measures itself (file sizes, ...).
  std::map<std::string, double> extras;

  [[nodiscard]] bool traced() const noexcept { return clock.enabled(); }
};

/// One checked operation: the digests of its result rows, keyed by row
/// set, or the error that stopped it.
struct Op {
  std::vector<std::pair<std::string, std::string>> digests;
  std::string error;
};

struct JobResult {
  double items = 0.0;  ///< requests or exported NetFlow records
  std::vector<Op> ops;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds a fresh set-up for the jobs that follow.
  virtual void setup(Pass& pass) = 0;
  /// Untimed step between a set-up and its first job. Returns expected
  /// digests (key, digest) that every later operation must reproduce.
  virtual std::vector<std::pair<std::string, std::string>> after_setup(Pass& pass) {
    (void)pass;
    return {};
  }
  /// The timed job on the current set-up.
  virtual JobResult job(Pass& pass) = 0;
  /// Untimed step after each job: collects traced figures into `pass`.
  virtual void after_job(Pass& pass) = 0;
  /// Items (requests or exported records) of one job at the default seed:
  /// the input size the end-to-end metrics are stated at.
  [[nodiscard]] virtual double stated_items() const = 0;
  /// Whether job() may run again on the same set-up.
  [[nodiscard]] virtual bool reusable() const { return false; }
  /// Releases the set-up (untimed).
  virtual void teardown() = 0;
};

/// nullptr for an unknown name. `work_dir` holds the workload's store and
/// checkpoint directories; it is created if missing.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      const std::string& work_dir);

}  // namespace perfbench
