#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {

/// The value of the first "<field>" line of a /proc file, as an integer.
std::uint64_t proc_field(const char* path, std::string_view field) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with(field)) {
      const auto digits = line.find_first_of("0123456789", field.size());
      if (digits == std::string::npos) return 0;
      return std::strtoull(line.c_str() + digits, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

double peak_rss_mb() {
  return static_cast<double>(proc_field("/proc/self/status", "VmHWM:")) / 1024.0;
}

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

std::uint64_t disk_write_bytes() { return proc_field("/proc/self/io", "write_bytes:"); }

LayerClock::Scope::Scope(LayerClock& owner, std::string_view name)
    : clock(owner),
      metric(name),
      span(owner.registry_, "perfbench/" + std::string(name)),
      wall_begin(now_s()),
      cpu_begin(process_cpu_s()) {}

LayerClock::Scope::~Scope() {
  const double wall = now_s() - wall_begin;
  const double cpu = process_cpu_s() - cpu_begin;
  clock.walls_[metric].push_back(wall);
  clock.cpus_[metric] += cpu;
  clock.total_wall_ += wall;
}

double LayerClock::cpu(std::string_view metric) const {
  const auto it = cpus_.find(metric);
  return it == cpus_.end() ? 0.0 : it->second;
}

const std::vector<double>& LayerClock::samples(std::string_view metric) const {
  static const std::vector<double> kNone;
  const auto it = walls_.find(metric);
  return it == walls_.end() ? kNone : it->second;
}

void Rows::add(std::string_view label, const std::vector<std::string>& fields) {
  text_ += label;
  for (const auto& field : fields) {
    text_ += ' ';
    text_ += field;
  }
  text_ += '\n';
}

std::string Rows::digest() const {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text_) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(hash));
  return buffer;
}

std::string num(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::string num(std::uint64_t value) { return std::to_string(value); }

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", static_cast<unsigned>(c));
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void JsonObject::key(std::string_view name) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_string(name);
  body_ += ": ";
}

JsonObject& JsonObject::add(std::string_view name, double value) {
  key(name);
  body_ += num(value);
  return *this;
}

JsonObject& JsonObject::add(std::string_view name, std::uint64_t value) {
  key(name);
  body_ += num(value);
  return *this;
}

JsonObject& JsonObject::add(std::string_view name, bool value) {
  key(name);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::add(std::string_view name, std::string_view value) {
  key(name);
  body_ += json_string(value);
  return *this;
}

JsonObject& JsonObject::raw(std::string_view name, std::string_view json) {
  key(name);
  body_ += json;
  return *this;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
