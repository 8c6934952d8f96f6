// The three workloads and their fixed parameters.
//
// Every workload runs the same shape: a 2-broker chain, a publisher at
// broker 0 with the NEWS DTD's advertisements, and one subscriber at
// broker 1 holding the whole Set A table. publish_open and
// publish_saturate drive it over loopback TCP; control_churn drives the
// brokers' handle() in-process. Each prints every end-to-end metric (or,
// traced, every per-layer metric); NOTES.md says what each means per
// workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common.hpp"
#include "inputs.hpp"

namespace perfbench {

/// Subscriptions the subscriber holds (the table size N).
inline constexpr std::size_t kTableSize = 4000;
/// Fresh XPEs control ops draw from, disjoint from the table: as many as
/// the table, so a run's control rounds never reuse an XPE.
inline constexpr std::size_t kFreshPool = 4000;
/// Table and fresh XPEs each control-script round swaps (a round is
/// 4 * kRoundPairs ops).
inline constexpr std::size_t kRoundPairs = 200;
/// Generated documents, cycled through with fresh document ids.
inline constexpr std::size_t kDocPool = 400;
/// publish_open: the fixed offered rate, documents per second.
inline constexpr double kOpenRate = 600.0;
/// publish_saturate: owed documents in flight.
inline constexpr std::size_t kWindow = 32;
/// Subscribes per barriered batch while a live table loads.
inline constexpr std::size_t kSubscribeBatch = 200;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 3;
/// Notified documents per block of the notify_p99_us estimate.
inline constexpr std::size_t kNotifyBlock = 500;
/// Control frames sent back to back on the live overlay (divides a cycle
/// of 2 * kRoundPairs ops).
inline constexpr std::size_t kControlBurst = 100;
/// Share of --seconds not spent in publish windows: each of a publish run's
/// overlays gets (1 - kControlShare) * seconds / kSetups of publishing and
/// then one control-script round (about 1.5 s at N = 4000).
inline constexpr double kControlShare = 0.25;
/// control_churn: one publication document after this many control ops.
/// The document right after a heavy op takes about as long as the op
/// (65-90 ms); at one document per op those are about 0.3% of documents,
/// so notify_p99_us sits on ordinary ones (NOTES.md).
inline constexpr std::size_t kChurnDocEvery = 1;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its spans (empty: nowhere).
  std::string spans_file;
};

InputOptions input_options();

Result run_publish(const Inputs& inputs, const RunOptions& options,
                   bool open_loop);
Result run_churn(const Inputs& inputs, const RunOptions& options);

}  // namespace perfbench
