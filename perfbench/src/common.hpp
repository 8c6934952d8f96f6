// Shared plumbing of the repository benchmark: clocks, sample summaries,
// the span recorder used by traced runs, and the one-line JSON result the
// harness prints last.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/percentile.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of an unsorted sample (copied, then sorted).
inline double percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return xroute::percentile_nearest_rank(samples, q);
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// A tail percentile that one stall cannot move: `samples` (in arrival
/// order) is cut into consecutive blocks of `block` samples, and the median
/// of the blocks' percentiles is returned. A trailing partial block is
/// dropped; with no full block, the percentile of all samples is returned.
inline double block_percentile(const std::vector<double>& samples,
                               std::size_t block, double q) {
  if (samples.size() < block) return percentile(samples, q);
  std::vector<double> per_block;
  for (std::size_t i = 0; i + block <= samples.size(); i += block) {
    per_block.push_back(percentile(
        std::vector<double>(samples.begin() + static_cast<long>(i),
                            samples.begin() + static_cast<long>(i + block)),
        q));
  }
  return median(std::move(per_block));
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

/// Peak resident set of this process, in MiB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Spans recorded around calls into the library's layers. Each span has a
/// layer name, a start and end time and the span that caused it; spans of
/// one document or control op share `request`. Self time of a span is its
/// duration minus the part its children cover. Spans stay in memory until
/// the run ends.
class Tracer {
 public:
  static constexpr std::int32_t kNoParent = -1;

  struct Span {
    std::uint16_t layer = 0;
    std::int32_t parent = kNoParent;
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;  ///< time covered by direct children
  };

  /// Interns a layer name; the returned id labels spans.
  std::uint16_t layer(const std::string& name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<std::uint16_t>(i);
    }
    names_.push_back(name);
    return static_cast<std::uint16_t>(names_.size() - 1);
  }

  std::int32_t open(std::uint16_t layer, std::uint64_t request,
                    std::int32_t parent = kNoParent) {
    Span span;
    span.layer = layer;
    span.parent = parent;
    span.request = request;
    spans_.push_back(span);
    spans_.back().start_ns = now_ns();
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  /// Closes span `id` and returns its duration in nanoseconds.
  std::int64_t close(std::int32_t id) {
    const std::int64_t end = now_ns();
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = end;
    const std::int64_t duration = end - span.start_ns;
    if (span.parent != kNoParent) {
      spans_[static_cast<std::size_t>(span.parent)].child_ns += duration;
    }
    return duration;
  }

  /// Runs `fn` inside a span and returns the span id.
  template <typename F>
  std::int32_t time(std::uint16_t layer, std::uint64_t request,
                    std::int32_t parent, F&& fn) {
    const std::int32_t id = open(layer, request, parent);
    fn();
    close(id);
    return id;
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& name(std::uint16_t layer) const { return names_[layer]; }

  static double self_ns(const Span& span) {
    return static_cast<double>(span.end_ns - span.start_ns - span.child_ns);
  }

  /// Writes every span as one CSV line (layer,request,parent,start,end).
  void write_csv(const std::string& file) const {
    std::FILE* out = std::fopen(file.c_str(), "w");
    if (!out) return;
    std::fprintf(out, "layer,request,parent,start_ns,end_ns\n");
    for (const Span& span : spans_) {
      std::fprintf(out, "%s,%llu,%d,%lld,%lld\n", names_[span.layer].c_str(),
                   static_cast<unsigned long long>(span.request), span.parent,
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
    }
    std::fclose(out);
  }

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// One named metric with its unit.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one run reports: the oracle verdict, operation counts and the
/// metrics of the requested kind.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back(Metric{name, unit, value});
  }
};

/// Prints every metric by name with its unit (human-readable), then the
/// one-line JSON result as the last line of standard output.
void print_result(const Result& result);

}  // namespace perfbench
