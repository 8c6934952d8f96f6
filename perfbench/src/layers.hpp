// Per-layer figures of a traced replay, and the critical-path breakdown
// that shows the layers adding up to the end-to-end notify latency.
#pragma once

#include <cstdint>
#include <vector>

#include "chain.hpp"
#include "common.hpp"

namespace perfbench {

/// Layer times (nanoseconds) on the path to one document's first
/// notification. Without pipelining (the in-process chain) it is every
/// step that precedes the first delivery. With pipelining (the live
/// overlay, where publisher, broker 0, broker 1 and subscriber run on their
/// own threads) a path waits for its predecessor on the same stage or for
/// its own upstream stage, whichever finishes later, and the breakdown
/// follows that chain of waits back to the document's start.
struct CriticalPath {
  bool notified = false;
  double extract = 0, encode = 0, decode = 0, handle_b0 = 0, handle_b1 = 0;
  double total() const {
    return extract + encode + decode + handle_b0 + handle_b1;
  }
};

CriticalPath critical_path(const Chain::DocTimes& times, bool pipelined);

/// What a replay counted besides its spans.
struct ReplayCounts {
  std::uint64_t docs = 0;
  std::uint64_t link_frames = 0;
  std::uint64_t link_bytes = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t subscribes = 0;
  std::uint64_t unsubscribes = 0;
  std::uint64_t subscribe_forwards = 0;
  std::uint64_t unsubscribe_forwards = 0;
  std::uint64_t table_size_b0 = 0;
  /// Wall time of the document pass with spans off, and with spans on
  /// minus the probe spans (the tracing overhead is their difference).
  double untraced_doc_ns = 0;
  double traced_doc_ns = 0;
};

/// Figures the untraced run measured that layer metrics are set against.
struct LiveFigures {
  double frames_in_b0 = 0;
  double frames_in_b1 = 0;
  double backpressure = 0;
  /// Per notified document: untraced notify latency minus its traced
  /// critical path, microseconds.
  std::vector<double> residual_us;
  std::vector<double> lag_us;
};

/// Adds every per-layer metric (the names BENCHMARK.json lists).
void add_layer_metrics(Result& result, const Tracer& tracer,
                       const Chain& chain, const ReplayCounts& counts,
                       const LiveFigures& live);

/// Prints the mean critical path per notified document, layer by layer,
/// with the residual, beside the untraced notify latency.
void print_breakdown(const std::vector<CriticalPath>& paths,
                     const std::vector<double>& notify_us,
                     const std::vector<double>& residual_us);

}  // namespace perfbench
