// cbwt_perfbench: runs one benchmark workload and prints its metrics.
//
//   cbwt_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR] [--results-dir DIR] [--reference FILE]
//                  [--commit SHA] [--source-digest HEX]
//
// --trace 0 times set-ups and jobs untraced for S seconds (at least three
// set-ups) and reports the end-to-end metrics. --trace 1 runs one job
// after a warm-up job three ways: untraced at 4 threads, traced at 4
// threads, traced at one thread; it reports the per-layer metrics of the
// traced run, the tracing overhead and the threads-1/threads-4 speed-ups.
//
// Every operation's row digests must equal the expected ones: the
// committed reference for this seed (if listed), the straight-through
// run (checkpoint_resume), and otherwise the first value seen in the
// process, so every job of a run reproduces the first. The last stdout
// line is {"correct", "attempted", "failed", "metrics"}; the line before
// it is the full record with the environment stamp.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "measure.h"
#include "obs/trace_buffer.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Worker threads of every Study the workloads run, except the
/// single-threaded reference pass of a traced run.
constexpr unsigned kThreads = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 20180901;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string results_dir;
  std::string reference;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr, "cbwt_perfbench: %s\n", message.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--results-dir") {
      options.results_dir = value;
    } else if (arg == "--reference") {
      options.reference = value;
    } else if (arg == "--commit") {
      options.commit = value;
    } else if (arg == "--source-digest") {
      options.source_digest = value;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  return options;
}

/// Operation accounting against the expected digests.
class Tally {
 public:
  void expect(const std::string& key, const std::string& digest) {
    expected_.emplace(key, digest);
  }

  void check(const Op& op) {
    ++attempted_;
    std::string failure = op.error;
    for (const auto& [key, digest] : op.digests) {
      seen_[key] = digest;
      const auto [begin, end] = expected_.equal_range(key);
      if (begin == end) expected_.emplace(key, digest);
      for (auto it = begin; it != end && failure.empty(); ++it) {
        if (it->second != digest) {
          failure = key + ": digest " + digest + " != expected " + it->second;
        }
      }
    }
    if (!failure.empty()) {
      ++failed_;
      if (errors_.size() < 16) errors_.push_back(failure);
    }
  }

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] std::string digests_json() const {
    JsonObject json;
    for (const auto& [key, digest] : seen_) json.add(key, digest);
    return json.str();
  }
  [[nodiscard]] std::string errors_json() const {
    std::string out = "[";
    for (const auto& error : errors_) {
      if (out.size() > 1) out += ", ";
      out += json_string(error);
    }
    return out + "]";
  }

 private:
  std::multimap<std::string, std::string> expected_;
  std::map<std::string, std::string> seen_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Loads "seed workload key digest" lines for this seed and workload.
void load_reference(const Options& options, Tally& tally) {
  if (options.reference.empty()) return;
  std::ifstream in(options.reference);
  if (!in) usage("cannot read reference file " + options.reference);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::uint64_t seed = 0;
    std::string workload;
    std::string key;
    std::string digest;
    if (!(fields >> seed >> workload >> key >> digest)) continue;
    if (seed == options.seed && workload == options.workload) tally.expect(key, digest);
  }
}

struct JobSample {
  double wall = 0.0;
  double cpu = 0.0;
  double items = 0.0;
  double peak_rss_mb = 0.0;
  double attributed = 0.0;  ///< wall covered by layer calls (traced only)
};

struct PassResult {
  std::vector<double> setups;
  std::vector<JobSample> jobs;
  double disk_write_bytes = 0.0;
};

/// Releases the set-up and hands freed heap back to the kernel, so the
/// next job's peak RSS starts from the same floor.
void release(Workload& workload) {
  workload.teardown();
  malloc_trim(0);
}

/// Set-ups and jobs until at least `min_setups` set-ups ran and the jobs
/// took `budget` seconds; reusable set-ups share the budget evenly.
/// After each set-up's jobs, a set-up cheaper than `setup_round_seconds`
/// is repeated without jobs until the round holds that much set-up work.
/// setup_s is then a median over the whole run, not over one moment of a
/// host whose speed drifts by tens of percent within seconds.
PassResult run_pass(Workload& workload, Pass& pass, int min_setups, double budget,
                    double setup_round_seconds, Tally& tally) {
  PassResult result;
  const auto set_up = [&] {
    const double begin = now_s();
    workload.setup(pass);
    result.setups.push_back(now_s() - begin);
  };
  const std::uint64_t disk_before = disk_write_bytes();
  double timed = 0.0;
  while (static_cast<int>(result.setups.size()) < min_setups || timed < budget) {
    set_up();
    for (const auto& [key, digest] : workload.after_setup(pass)) tally.expect(key, digest);
    malloc_trim(0);
    const double share =
        budget * static_cast<double>(result.setups.size()) / static_cast<double>(min_setups);
    do {
      reset_peak_rss();
      JobSample sample;
      const double attributed_before = pass.clock.total_wall();
      const double cpu_begin = process_cpu_s();
      const double wall_begin = now_s();
      const JobResult job = workload.job(pass);
      sample.wall = now_s() - wall_begin;
      sample.cpu = process_cpu_s() - cpu_begin;
      sample.peak_rss_mb = peak_rss_mb();
      sample.attributed = pass.clock.total_wall() - attributed_before;
      sample.items = job.items;
      workload.after_job(pass);
      malloc_trim(0);
      for (const auto& op : job.ops) tally.check(op);
      result.jobs.push_back(sample);
      timed += sample.wall;
    } while (workload.reusable() && timed < share);
    release(workload);
    for (double round = result.setups.back(); round < setup_round_seconds;
         round += result.setups.back()) {
      set_up();
      release(workload);
    }
  }
  result.disk_write_bytes =
      static_cast<double>(disk_write_bytes() - disk_before);
  return result;
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

template <class F>
double job_median(const PassResult& pass, F&& field) {
  std::vector<double> values;
  for (const auto& job : pass.jobs) values.push_back(field(job));
  return median(std::move(values));
}

/// One reported metric: name, unit, value.
struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// The end-to-end metrics. A seed draws a different world, whose size
/// varies by several percent at one scale, so the size-bound metrics are
/// scaled to the workload's stated input size (`stated_items`); runs at
/// different seeds then compare the program, not the draw.
std::vector<Metric> end_to_end(const PassResult& pass, double stated_items) {
  const auto per_stated = [&](double value, const JobSample& j) {
    return value * ratio(stated_items, j.items);
  };
  return {
      {"wall_s", "s", job_median(pass, [&](const JobSample& j) { return per_stated(j.wall, j); })},
      {"items_per_s", "1/s",
       job_median(pass, [](const JobSample& j) { return ratio(j.items, j.wall); })},
      {"cpu_s", "s", job_median(pass, [&](const JobSample& j) { return per_stated(j.cpu, j); })},
      {"peak_rss_mb", "MiB",
       job_median(pass, [&](const JobSample& j) { return per_stated(j.peak_rss_mb, j); })},
      {"setup_s", "s", median(pass.setups)},
  };
}

/// The last call's wall seconds of `metric` (a traced pass makes one
/// set-up and one job, so that is the job's call where both make one).
double last_call(const LayerClock& clock, const std::string& metric) {
  const auto& samples = clock.samples(metric);
  return samples.empty() ? 0.0 : samples.back();
}

std::vector<Metric> per_layer(const Pass& traced, const PassResult& traced_result,
                              const Pass& serial, const PassResult& untraced_result,
                              const Tally& tally) {
  const LayerClock& clock = traced.clock;
  const Harvest& h = traced.harvest;
  const auto extra = [&](const std::string& name) {
    const auto it = traced.extras.find(name);
    return it == traced.extras.end() ? 0.0 : it->second;
  };
  const double requests = extra("browser.requests");
  const double collect = last_call(clock, "browser.collect_s");
  const double classify_run = last_call(clock, "classify.run_s");
  const double classify_calls = static_cast<double>(clock.samples("classify.run_s").size());
  const double probe = last_call(clock, "geoloc.probe_s");
  const double records = h.value("cbwt_netflow_records_generated_total");
  const double generate = h.span("netflow/generate");
  const double spill = h.span("netflow/join/partition");
  const auto& snapshots = clock.samples("core.isp_snapshot_s");
  double snapshot_max = 0.0;
  for (const double s : snapshots) snapshot_max = std::max(snapshot_max, s);
  const JobSample& job = traced_result.jobs.back();
  const double located = h.value("cbwt_geoloc_located_total");
  const double hits = h.value("cbwt_geoloc_cache_hits_total");

  return {
      {"world.build_s", "s", last_call(clock, "world.build_s")},
      {"dns.resolver_s", "s", last_call(clock, "dns.resolver_s")},
      {"browser.collect_s", "s", collect},
      {"browser.requests", "count", collect > 0.0 ? requests : 0.0},
      {"browser.ns_per_request", "ns", 1e9 * ratio(collect, requests)},
      {"pdns.replicate_s", "s", last_call(clock, "pdns.replicate_s")},
      {"pdns.ips", "count", extra("pdns.ips")},
      {"pdns.added_ips", "count", extra("pdns.added_ips")},
      {"filterlist.engine_build_s", "s", last_call(clock, "filterlist.engine_build_s")},
      {"classify.run_s", "s", classify_run},
      {"classify.cpu_s", "s", ratio(clock.cpu("classify.run_s"), classify_calls)},
      {"classify.ns_per_request", "ns", 1e9 * ratio(classify_run, requests)},
      {"classify.stage1_s", "s", h.span("classify/stage1_abp")},
      {"classify.stage2_s", "s", h.span("classify/stage2_referrer")},
      {"classify.stage3_s", "s", h.span("classify/stage3_keyword")},
      {"classify.rule_hits", "count", h.value("cbwt_classify_rule_hits_total")},
      {"classify.referrer_promotions", "count",
       h.value("cbwt_classify_referrer_promotions_total")},
      {"classify.keyword_promotions", "count",
       h.value("cbwt_classify_keyword_promotions_total")},
      {"classify.summarize_s", "s", last_call(clock, "classify.summarize_s")},
      {"classify.speedup", "ratio",
       ratio(last_call(serial.clock, "classify.run_s"), classify_run)},
      {"geoloc.panel_s", "s", last_call(clock, "geoloc.panel_s")},
      {"geoloc.probe_s", "s", probe},
      {"geoloc.probe_ips", "count", h.value("cbwt_geoloc_probe_batch_ips_total")},
      {"geoloc.located_ratio", "ratio",
       ratio(located, located + h.value("cbwt_geoloc_unlocated_total"))},
      {"geoloc.cache_hit_ratio", "ratio",
       ratio(hits, hits + h.value("cbwt_geoloc_cache_misses_total"))},
      {"geoloc.probe_speedup", "ratio", ratio(last_call(serial.clock, "geoloc.probe_s"), probe)},
      {"analysis.flows_s", "s", last_call(clock, "analysis.flows_s")},
      {"analysis.flows", "count", extra("analysis.flows")},
      {"whatif.localization_s", "s", last_call(clock, "whatif.localization_s")},
      {"core.completed_ips_s", "s", last_call(clock, "core.completed_ips_s")},
      {"core.isp_snapshot_s", "s", median(snapshots)},
      {"core.isp_snapshot_max_s", "s", snapshot_max},
      {"core.unattributed_share", "ratio", ratio(job.wall - job.attributed, job.wall)},
      {"netflow.generate_s", "s", generate},
      {"netflow.records", "count", records},
      {"netflow.ns_per_record", "ns", 1e9 * ratio(generate, records)},
      {"netflow.match_ratio", "ratio",
       ratio(h.value("cbwt_netflow_matched_total"),
             h.value("cbwt_netflow_records_collected_total"))},
      {"netflow.generate_speedup", "ratio",
       ratio(serial.harvest.span("netflow/generate"), generate)},
      {"join.spill_s", "s", spill},
      {"join.probe_s", "s", h.span("netflow/join/probe")},
      {"join.spill_bytes", "bytes", h.value("cbwt_netflow_join_spill_bytes_total")},
      {"join.spill_pages", "count", h.value("cbwt_netflow_join_spill_pages_total")},
      {"join.partition_skew", "ratio", extra("join.partition_skew")},
      {"join.resumed", "count", h.value("cbwt_netflow_join_resumed_total")},
      {"join.spill_speedup", "ratio",
       ratio(serial.harvest.span("netflow/join/partition"), spill)},
      {"store.bytes_written", "bytes",
       h.value("cbwt_store_bytes_written_total") + extra("store.checkpoint_bytes")},
      {"store.bytes_read", "bytes",
       h.value("cbwt_store_bytes_read_total") + extra("store.resume_bytes")},
      {"store.disk_write_bytes", "bytes", traced_result.disk_write_bytes},
      {"store.checkpoint_s", "s", last_call(clock, "store.checkpoint_s")},
      {"store.resume_s", "s", last_call(clock, "store.resume_s")},
      {"runtime.consumer_stall_s", "s",
       h.value("cbwt_runtime_channel_consumer_stall_seconds")},
      {"runtime.producer_stall_s", "s",
       h.value("cbwt_runtime_channel_producer_stall_seconds")},
      {"runtime.tasks_stolen", "count", h.value("cbwt_runtime_pool_tasks_stolen")},
      {"obs.tracing_overhead_s", "s", job.wall - untraced_result.jobs.back().wall},
      {"failed_ops_share", "ratio",
       ratio(static_cast<double>(tally.failed()), static_cast<double>(tally.attempted()))},
  };
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  JsonObject json;
  for (const auto& metric : metrics) {
    json.raw(metric.name,
             JsonObject().add("value", metric.value).add("unit", metric.unit).str());
  }
  return json.str();
}

std::string samples_json(const PassResult& pass) {
  std::string setups = "[";
  for (const double s : pass.setups) setups += (setups.size() > 1 ? ", " : "") + num(s);
  std::string jobs = "[";
  for (const auto& j : pass.jobs) {
    if (jobs.size() > 1) jobs += ", ";
    jobs += JsonObject()
                .add("wall_s", j.wall)
                .add("cpu_s", j.cpu)
                .add("items", j.items)
                .add("peak_rss_mb", j.peak_rss_mb)
                .str();
  }
  return JsonObject().raw("setup_s", setups + "]").raw("jobs", jobs + "]").str();
}

std::string environment_json(const Options& options) {
  char host[256] = {};
  if (gethostname(host, sizeof host - 1) != 0) host[0] = '\0';
  return JsonObject()
      .add("host", host)
      .add("cpus", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .add("build_type", PERFBENCH_BUILD_TYPE)
      .add("compiler", PERFBENCH_COMPILER)
      .add("commit", options.commit)
      .add("source_digest", options.source_digest)
      .add("seed", options.seed)
      .add("threads", static_cast<std::uint64_t>(kThreads))
      .str();
}

/// Span self times of a traced pass: wall minus the child spans' wall.
std::string self_times_json(const Harvest& harvest) {
  JsonObject json;
  for (const auto& [name, self] : harvest.self_times()) {
    json.raw(name, JsonObject().add("wall_s", harvest.span(name)).add("self_s", self).str());
  }
  return json.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << '\n';
}

int run(const Options& options) {
  std::filesystem::remove_all(options.work_dir);
  auto workload = make_workload(options.workload, options.seed, options.work_dir);
  if (!workload) usage("unknown workload " + options.workload);
  Tally tally;
  load_reference(options, tally);

  JsonObject record;
  record.add("workload", options.workload)
      .add("seconds", options.seconds)
      .add("trace", options.trace)
      .raw("environment", environment_json(options));
  std::vector<Metric> metrics;
  std::string chrome_trace;
  if (!options.trace) {
    Pass pass(kThreads, false);
    const PassResult result = run_pass(*workload, pass, 3, options.seconds, 0.3, tally);
    metrics = end_to_end(result, workload->stated_items());
    record.raw("samples", samples_json(result));
  } else {
    // The first job of a process runs cold (page cache, fresh files);
    // a checked warm-up job keeps that out of the untraced baseline.
    Pass warmup(kThreads, false);
    (void)run_pass(*workload, warmup, 1, 0.0, 0.0, tally);
    Pass untraced(kThreads, false);
    const PassResult untraced_result = run_pass(*workload, untraced, 1, 0.0, 0.0, tally);
    Pass traced(kThreads, true);
    const PassResult traced_result = run_pass(*workload, traced, 1, 0.0, 0.0, tally);
    Pass serial(1, true);
    const PassResult serial_result = run_pass(*workload, serial, 1, 0.0, 0.0, tally);
    metrics = per_layer(traced, traced_result, serial, untraced_result, tally);
    record.raw("samples", samples_json(traced_result))
        .raw("serial_samples", samples_json(serial_result))
        .raw("spans", self_times_json(traced.harvest));
    chrome_trace = obs::to_chrome_trace(*traced.trace);
  }
  workload.reset();
  std::filesystem::remove_all(options.work_dir);

  const bool correct = tally.failed() == 0 && tally.attempted() > 0;
  record.raw("digests", tally.digests_json()).raw("errors", tally.errors_json());
  const std::string result = JsonObject()
                                 .add("correct", correct)
                                 .add("attempted", tally.attempted())
                                 .add("failed", tally.failed())
                                 .raw("metrics", metrics_json(metrics))
                                 .str();
  record.raw("result", result);
  if (!options.results_dir.empty()) {
    std::filesystem::create_directories(options.results_dir);
    const std::string stem = options.results_dir + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) + (options.trace ? "-trace" : "");
    write_file(stem + ".json", record.str());
    if (!chrome_trace.empty()) write_file(stem + ".chrome.json", chrome_trace);
  }
  std::printf("%s\n%s\n", record.str().c_str(), result.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto options = perfbench::parse(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cbwt_perfbench: %s\n", error.what());
    return 1;
  }
}
