#include "workloads.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <stdexcept>

#include "analysis/flows.h"
#include "classify/classifier.h"
#include "core/study.h"
#include "geo/country.h"
#include "netflow/profile.h"
#include "obs/runtime_metrics.h"
#include "whatif/localization.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace cbwt;

void Harvest::absorb(const obs::Registry& registry) {
  const auto spans = registry.spans();
  for (const auto& span : spans) {
    wall_[span.name] += span.wall_seconds;
    self_[span.name] += span.wall_seconds;
  }
  for (const auto& span : spans) {
    if (!span.parent.empty()) self_[span.parent] -= span.wall_seconds;
  }
  for (const auto& [name, value] : registry.counters()) {
    values_[name] += static_cast<double>(value);
  }
  for (const auto& [name, value] : registry.gauges()) values_[name] += value;
}

namespace {

double lookup(const std::map<std::string, double>& map, const std::string& name) {
  const auto it = map.find(name);
  return it == map.end() ? 0.0 : it->second;
}

}  // namespace

double Harvest::span(const std::string& name) const { return lookup(wall_, name); }
double Harvest::value(const std::string& name) const { return lookup(values_, name); }

namespace {

/// Extension requests at world scale 0.08 and the default seed.
constexpr double kRequestsAt008 = 456310.0;

core::StudyConfig study_config(std::uint64_t seed, double scale) {
  core::StudyConfig config;
  config.world.seed = seed;
  config.world.scale = scale;
  return config;
}

std::vector<std::string> stage_fields(const classify::StageStats& stats) {
  return {num(stats.fqdns), num(stats.registrables), num(stats.unique_urls),
          num(stats.total_requests)};
}

/// Shared by every workload: owns the current Study and, in traced
/// passes, the registry attached to it.
class StudyWorkload : public Workload {
 public:
  explicit StudyWorkload(std::uint64_t seed, std::string work_dir)
      : seed_(seed), work_dir_(std::move(work_dir)) {
    fs::create_directories(work_dir_);
  }

  void teardown() override { study_.reset(); registry_.reset(); }

 protected:
  core::Study& open_study(Pass& pass, core::StudyConfig config) {
    study_.reset();
    registry_.reset();
    if (pass.traced()) {
      registry_ = std::make_unique<obs::Registry>();
      config.registry = registry_.get();
      config.trace = pass.trace.get();
    }
    config.threads = pass.threads;
    pass.clock.attach(registry_.get());
    study_ = std::make_unique<core::Study>(std::move(config));
    return *study_;
  }

  /// Moves the open Study's registry into the pass's totals.
  void harvest(Pass& pass) {
    if (!registry_) return;
    if (runtime::ThreadPool* pool = study_->pool()) {
      obs::record_pool_stats(registry_.get(), *pool);
    }
    pass.harvest.absorb(*registry_);
  }

  /// Layer counts of the open Study's extension pipeline.
  void record_dataset_counts(Pass& pass) {
    auto& study = *study_;
    pass.extras["browser.requests"] = static_cast<double>(study.dataset().requests.size());
    pass.extras["pdns.ips"] = static_cast<double>(study.pdns_store().all_ips().size());
    pass.extras["pdns.added_ips"] =
        static_cast<double>(study.completed_tracker_ips().size()) -
        static_cast<double>(study.observed_tracker_ips().size());
  }

  /// Collection and pDNS replication: the stages a checkpoint saves.
  void collect(Pass& pass, core::Study& study) {
    pass.clock.call("dns.resolver_s", [&] { (void)study.resolver(); });
    pass.clock.call("browser.collect_s", [&] { (void)study.dataset(); });
    pass.clock.call("pdns.replicate_s", [&] { (void)study.pdns_store(); });
  }

  /// classify -> completed IPs -> geo -> flows -> EU28 confinement ->
  /// Table 2: the rows every extension-side workload must agree on.
  static Rows study_rows(LayerClock& clock, core::Study& study) {
    clock.call("filterlist.engine_build_s", [&] { (void)study.classifier(); });
    clock.call("classify.run_s", [&] { (void)study.outcomes(); });
    clock.call("core.completed_ips_s", [&] { (void)study.completed_tracker_ips(); });
    clock.call("geoloc.panel_s", [&] { (void)study.geo(); });
    std::vector<analysis::Flow> eu_flows;
    clock.call("analysis.flows_s", [&] {
      eu_flows = analysis::flows_from_region(study.flows(), geo::Region::EU28);
    });
    analysis::Confinement eu28;
    clock.call("geoloc.probe_s", [&] { eu28 = study.analyzer().confinement(eu_flows); });
    classify::ClassificationSummary summary;
    clock.call("classify.summarize_s", [&] {
      summary = classify::summarize(study.dataset(), study.outcomes());
    });
    Rows rows;
    rows.add("table2.abp", stage_fields(summary.abp));
    rows.add("table2.semi", stage_fields(summary.semi));
    rows.add("table2.total", stage_fields(summary.total));
    rows.add("table2.untracked", {num(summary.untracked_requests)});
    rows.add("eu28", {num(eu28.total), num(eu28.in_country), num(eu28.in_eu28),
                      num(eu28.in_continent)});
    return rows;
  }

  std::uint64_t seed_;
  std::string work_dir_;
  std::unique_ptr<obs::Registry> registry_;  // outlives study_
  std::unique_ptr<core::Study> study_;
};

// --- extension_study ---------------------------------------------------

class ExtensionStudy final : public StudyWorkload {
 public:
  using StudyWorkload::StudyWorkload;

  // The synthetic world is the input the users browse: building it is
  // input generation, so it is set-up; everything downstream is timed.
  void setup(Pass& pass) override {
    auto& study = open_study(pass, study_config(seed_, 0.08));
    pass.clock.call("world.build_s", [&] { (void)study.world(); });
  }

  JobResult job(Pass& pass) override {
    JobResult result;
    Op op;
    try {
      auto& study = *study_;
      collect(pass, study);
      Rows core = study_rows(pass.clock, study);
      Rows full = core;
      pass.clock.call("whatif.localization_s", [&] {
        const auto& localization = study.localization();
        for (const auto scenario :
             {whatif::Scenario::Default, whatif::Scenario::RedirectFqdn,
              whatif::Scenario::RedirectTld, whatif::Scenario::PopMirroring,
              whatif::Scenario::RedirectTldPlusMirroring,
              whatif::Scenario::CloudMigration}) {
          const auto r = localization.evaluate(scenario);
          full.add("table5." + std::string(whatif::to_string(scenario)),
                   {num(r.total), num(r.in_country_pct), num(r.in_continent_pct)});
        }
      });
      // The smallest Table 8 ISP, in memory: the path store and join
      // changes bypass.
      const auto& isp = netflow::default_isps()[2];
      const auto& snapshot = netflow::default_snapshots().front();
      core::Study::IspRun run;
      pass.clock.call("core.isp_snapshot_s",
                      [&] { run = study.run_isp_snapshot(isp, snapshot); });
      full.add("ispday." + std::string(isp.name) + "/" + std::string(snapshot.label),
               {num(run.exported_records), num(run.collection.matched_records),
                num(run.collection.https_records)});
      result.items = static_cast<double>(study.dataset().requests.size());
      op.digests = {{"core", core.digest()}, {"full", full.digest()}};
    } catch (const std::exception& error) {
      op.error = error.what();
    }
    result.ops.push_back(std::move(op));
    return result;
  }

  [[nodiscard]] double stated_items() const override { return kRequestsAt008; }

  void after_job(Pass& pass) override {
    if (!pass.traced()) return;
    harvest(pass);
    record_dataset_counts(pass);
    pass.extras["analysis.flows"] = static_cast<double>(study_->flows().size());
  }
};

// --- isp_table8_store --------------------------------------------------

/// The file stem Study::run_isp_snapshot derives from an ISP name.
std::string isp_stem(std::string_view name) {
  std::string stem;
  for (const char c : name) {
    stem.push_back((std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_');
  }
  return stem;
}

class IspTable8Store final : public StudyWorkload {
 public:
  using StudyWorkload::StudyWorkload;

  // Set-up builds the upstream tracker-IP list the ISP-days join against.
  void setup(Pass& pass) override {
    store_dir_ = work_dir_ + "/store-" + std::to_string(setups_++);
    fs::remove_all(store_dir_);
    fs::create_directories(store_dir_);
    auto config = study_config(seed_, 0.01);
    config.netflow.scale = 1e-3;
    config.storage.mode = store::Mode::StoreBacked;
    config.storage.directory = store_dir_;
    auto& study = open_study(pass, std::move(config));
    pass.clock.call("world.build_s", [&] { (void)study.world(); });
    collect(pass, study);
    pass.clock.call("filterlist.engine_build_s", [&] { (void)study.classifier(); });
    pass.clock.call("classify.run_s", [&] { (void)study.outcomes(); });
    pass.clock.call("core.completed_ips_s", [&] { (void)study.completed_tracker_ips(); });
  }

  JobResult job(Pass& pass) override {
    JobResult result;
    auto& study = *study_;
    // A spill left from an earlier run would be resumed, which measures
    // a different program: every ISP-day needs a clean store.
    const bool clean_start = fs::is_empty(store_dir_);
    for (const auto& isp : netflow::default_isps()) {
      for (const auto& snapshot : netflow::default_snapshots()) {
        std::string key = std::string(isp.name) + "/" + std::string(snapshot.label);
        std::replace(key.begin(), key.end(), ' ', '_');  // reference files split on spaces
        const std::string day = isp_stem(isp.name) + "_day" + std::to_string(snapshot.day);
        Op op;
        try {
          if (!clean_start) throw std::runtime_error("store directory not empty at start");
          if (fs::exists(store_dir_ + "/netflow_" + day + ".rec") ||
              fs::exists(store_dir_ + "/join_" + day)) {
            throw std::runtime_error("snapshot files exist before the run");
          }
          const double resumed_before = resumed();
          core::Study::IspRun run;
          pass.clock.call("core.isp_snapshot_s",
                          [&] { run = study.run_isp_snapshot(isp, snapshot); });
          if (resumed() != resumed_before) throw std::runtime_error("join resumed a spill");
          Rows rows;
          rows.add(key, {num(run.exported_records), num(run.collection.matched_records),
                         num(run.collection.https_records)});
          op.digests = {{key, rows.digest()}};
          result.items += static_cast<double>(run.exported_records);
        } catch (const std::exception& error) {
          op.error = key + ": " + error.what();
        }
        result.ops.push_back(std::move(op));
      }
    }
    return result;
  }

  [[nodiscard]] double stated_items() const override { return 6123374.0; }

  // The next job on this set-up starts from an empty store again.
  void after_job(Pass& pass) override {
    if (pass.traced()) {
      harvest(pass);
      record_dataset_counts(pass);
      pass.extras["join.partition_skew"] = partition_skew();
    }
    fs::remove_all(store_dir_);
    fs::create_directories(store_dir_);
  }

  [[nodiscard]] bool reusable() const override { return true; }

  void teardown() override {
    StudyWorkload::teardown();
    fs::remove_all(store_dir_);
  }

 private:
  /// Join resumptions the traced registry has counted (0 untraced; the
  /// untraced run relies on the clean-directory checks).
  double resumed() const {
    return registry_ ? static_cast<double>(
                           registry_->counter_value("cbwt_netflow_join_resumed_total"))
                     : 0.0;
  }

  /// Largest over mean partition spill size, summed over every ISP-day.
  double partition_skew() const {
    std::map<std::string, double> bytes;
    for (const auto& entry : fs::directory_iterator(store_dir_)) {
      if (!entry.is_directory() || !entry.path().filename().string().starts_with("join_")) {
        continue;
      }
      for (const auto& part : fs::directory_iterator(entry.path())) {
        const std::string name = part.path().filename().string();
        if (name.starts_with("part_")) {
          bytes[name] += static_cast<double>(part.file_size());
        }
      }
    }
    if (bytes.empty()) return 0.0;
    double sum = 0.0;
    double largest = 0.0;
    for (const auto& [name, size] : bytes) {
      sum += size;
      largest = std::max(largest, size);
    }
    return sum > 0.0 ? largest / (sum / static_cast<double>(bytes.size())) : 0.0;
  }

  std::string store_dir_;
  int setups_ = 0;
};

// --- checkpoint_resume -------------------------------------------------

double directory_bytes(const std::string& dir) {
  double bytes = 0.0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += static_cast<double>(entry.file_size());
  }
  return bytes;
}

class CheckpointResume final : public StudyWorkload {
 public:
  using StudyWorkload::StudyWorkload;

  // Set-up collects the dataset, replicates pDNS and saves a checkpoint.
  void setup(Pass& pass) override {
    checkpoint_dir_ = work_dir_ + "/checkpoint-" + std::to_string(setups_++);
    fs::remove_all(checkpoint_dir_);
    auto& study = open_study(pass, study_config(seed_, 0.08));
    pass.clock.call("world.build_s", [&] { (void)study.world(); });
    collect(pass, study);
    pass.clock.call("store.checkpoint_s", [&] { study.save_checkpoint(checkpoint_dir_); });
  }

  // The first set-up continues straight through, untimed and untraced:
  // every resumed job must reproduce its rows exactly.
  std::vector<std::pair<std::string, std::string>> after_setup(Pass& pass) override {
    harvest(pass);
    // The checkpoint writer and loader publish no store counters; what
    // they move is the checkpoint's files, which the benchmark sizes.
    if (pass.traced()) pass.extras["store.checkpoint_bytes"] = directory_bytes(checkpoint_dir_);
    std::vector<std::pair<std::string, std::string>> expected;
    if (!checked_) {
      checked_ = true;
      LayerClock quiet;
      expected.emplace_back("core", study_rows(quiet, *study_).digest());
    }
    StudyWorkload::teardown();
    return expected;
  }

  JobResult job(Pass& pass) override {
    JobResult result;
    Op op;
    try {
      auto config = study_config(seed_, 0.08);
      config.storage.resume_from = checkpoint_dir_;
      auto& study = open_study(pass, std::move(config));
      pass.clock.call("world.build_s", [&] { (void)study.world(); });
      pass.clock.call("store.resume_s", [&] { (void)study.dataset(); });
      op.digests = {{"core", study_rows(pass.clock, study).digest()}};
      result.items = static_cast<double>(study.dataset().requests.size());
    } catch (const std::exception& error) {
      op.error = error.what();
    }
    result.ops.push_back(std::move(op));
    return result;
  }

  void after_job(Pass& pass) override {
    if (pass.traced() && study_) {
      harvest(pass);
      pass.extras["store.resume_bytes"] = directory_bytes(checkpoint_dir_);
      record_dataset_counts(pass);
      pass.extras["analysis.flows"] = static_cast<double>(study_->flows().size());
    }
    StudyWorkload::teardown();
  }

  [[nodiscard]] bool reusable() const override { return true; }
  [[nodiscard]] double stated_items() const override { return kRequestsAt008; }

  void teardown() override {
    StudyWorkload::teardown();
    fs::remove_all(checkpoint_dir_);
  }

 private:
  std::string checkpoint_dir_;
  int setups_ = 0;
  bool checked_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        const std::string& work_dir) {
  const std::string dir = work_dir + "/" + name;
  if (name == "extension_study") return std::make_unique<ExtensionStudy>(seed, dir);
  if (name == "isp_table8_store") return std::make_unique<IspTable8Store>(seed, dir);
  if (name == "checkpoint_resume") return std::make_unique<CheckpointResume>(seed, dir);
  return nullptr;
}

}  // namespace perfbench
