#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

namespace perfbench {

Percentile nearest_rank(std::vector<double> samples, double p) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(samples.size())));
  return {samples[rank == 0 ? 0 : rank - 1], samples.size()};
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid] : 0.5 * (samples[mid - 1] + samples[mid]);
}

SpanLog::Scope::Scope(SpanLog& log, std::string name)
    : log_(log), index_(static_cast<int>(log.spans_.size())) {
  log_.spans_.push_back(Span{std::move(name), log_.open_, log_.now(), 0.0});
  log_.open_ = index_;
}

SpanLog::Scope::~Scope() {
  Span& s = log_.spans_[static_cast<std::size_t>(index_)];
  s.end = log_.now();
  log_.open_ = s.parent;
}

double SpanLog::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
}

double SpanLog::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) sum += s.seconds();
  return sum;
}

double remainder(double wall, const std::vector<double>& parts) {
  return wall - std::accumulate(parts.begin(), parts.end(), 0.0);
}

std::uint64_t digest(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, 8);
    h = (h ^ word) * 0x100000001b3ull;
  }
  for (; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Metric names and units are benchmark-defined identifiers, but escape the
/// two characters that could break the line anyway.
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string result_json(bool correct, std::int64_t attempted, std::int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
