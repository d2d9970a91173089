// Metric arithmetic of the repository benchmark: percentiles, span
// bookkeeping and self time, digests and the one-line JSON
// result the benchmark prints last. Kept free of vbatch types so the
// self-test can exercise it without the library.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A nearest-rank percentile together with the number of samples it was
/// taken over (a p99 of 40 samples means something else than one of 20000).
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank percentile, p in [0, 100]: the ceil(p/100 * N)-th smallest
/// sample (1-based; p = 0 gives the minimum). {0, 0} when there are none.
[[nodiscard]] Percentile nearest_rank(std::vector<double> samples, double p);

/// Median of a run's repeated measurements (mean of the middle two for an
/// even count). 0 for an empty set.
[[nodiscard]] double median(std::vector<double> samples);

/// One timed interval recorded by the benchmark around a call into a
/// vbatch module. `parent` indexes the enclosing span (-1 at top level).
struct Span {
  std::string name;
  int parent = -1;
  double start = 0.0;  ///< seconds since the log was created
  double end = 0.0;
  [[nodiscard]] double seconds() const noexcept { return end - start; }
};

/// In-memory span log. Spans are appended as they open and closed in LIFO
/// order through Scope; nothing is written until the benchmark ends.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog& log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Sum of the durations of every span called `name`.
  [[nodiscard]] double total(const std::string& name) const;

 private:
  [[nodiscard]] double now() const;
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  int open_ = -1;  ///< innermost open span
};

/// Self time: the wall time left once the measured parts are taken out,
/// wall - sum(parts). Negative when the parts overrun the wall (noise).
[[nodiscard]] double remainder(double wall, const std::vector<double>& parts);

/// FNV-1a-style digest over raw bytes, folded a 64-bit word at a time (then
/// the tail bytes), chained through `h` so several buffers fold into one.
[[nodiscard]] std::uint64_t digest(const void* data, std::size_t bytes,
                                   std::uint64_t h = 0xcbf29ce484222325ull);

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":
/// {name: {"value": v, "unit": u}, ...}} with every value printed to full
/// double precision. Non-finite values render as null.
[[nodiscard]] std::string result_json(bool correct, std::int64_t attempted, std::int64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace perfbench
