// publish_open and publish_saturate: documents over a live 2-broker
// loopback TCP chain, then control ops on the same overlay.
//
// Threads: the overlay's four event loops (broker 0, broker 1, publisher,
// subscriber) plus this thread, which generates documents and control ops.
#include <malloc.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "layers.hpp"
#include "net/topology.hpp"
#include "oracle.hpp"
#include "transport/loopback.hpp"
#include "wire/codec.hpp"
#include "workloads.hpp"
#include "xml/stream_parser.hpp"
#include "xpath/parser.hpp"

namespace perfbench {

using namespace xroute;
using xroute::transport::LoopbackOverlay;
using xroute::transport::TransportBroker;
using xroute::transport::TransportClient;

namespace {

/// A set-up step or barrier that never completed: the run fails loudly.
class LiveFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Publications arriving at the subscriber, recorded on its loop thread.
class Arrivals {
 public:
  void on_message(const Message& msg) {
    if (msg.type() != MessageType::kPublish) return;
    const auto& pub = std::get<PublishMsg>(msg.payload);
    const std::int64_t at = now_ns();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      log_.emplace_back(pub.doc_id, pub.path_id);
      if (pub.doc_id >= first_ns_.size()) {
        first_ns_.resize(pub.doc_id + 1, 0);
        paths_.resize(pub.doc_id + 1, 0);
      }
      ++paths_[pub.doc_id];
      if (first_ns_[pub.doc_id] == 0) {
        first_ns_[pub.doc_id] = at;
        ++first_count_;
        last_first_ns_ = at;
      }
    }
    cv_.notify_all();
  }

  /// Waits until `pred()` holds (checked under the lock) or `deadline_ns`.
  template <typename Pred>
  bool wait(Pred pred, std::int64_t deadline_ns) {
    std::unique_lock<std::mutex> lock(mutex_);
    const Clock::time_point deadline{std::chrono::nanoseconds(deadline_ns)};
    return cv_.wait_until(lock, deadline, [&] { return pred(); });
  }

  // Callers hold no lock; these take it.
  std::uint64_t first_count() {
    std::lock_guard<std::mutex> lock(mutex_);
    return first_count_;
  }
  std::int64_t first_ns(std::uint64_t doc) {
    std::lock_guard<std::mutex> lock(mutex_);
    return doc < first_ns_.size() ? first_ns_[doc] : 0;
  }
  std::vector<std::pair<std::uint64_t, std::uint32_t>> log() {
    std::lock_guard<std::mutex> lock(mutex_);
    return log_;
  }

  // Lock-held accessors for wait() predicates.
  std::uint64_t first_count_locked() const { return first_count_; }
  std::int64_t last_first_ns_locked() const { return last_first_ns_; }
  std::uint32_t paths_locked(std::uint64_t doc) const {
    return doc < paths_.size() ? paths_[doc] : 0;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> log_;
  std::vector<std::int64_t> first_ns_;
  std::vector<std::uint32_t> paths_;  ///< arrivals per document
  std::uint64_t first_count_ = 0;
  std::int64_t last_first_ns_ = 0;
};

/// One live overlay with its two clients.
struct Live {
  std::shared_ptr<Arrivals> arrivals = std::make_shared<Arrivals>();
  std::unique_ptr<LoopbackOverlay> overlay;
  TransportClient* publisher = nullptr;
  TransportClient* subscriber = nullptr;
  std::uint64_t next_doc = 0;

  TransportBroker& b0() { return overlay->broker(0); }
  TransportBroker& b1() { return overlay->broker(1); }
};

template <typename Pred>
void wait_for(Pred pred, double timeout_s, const std::string& what) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (!pred()) {
    if (now_ns() > deadline) throw LiveFailure("timed out waiting for " + what);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Returns once the broker's loop thread has finished whatever frame it
/// was handling: metrics_json() runs on that thread and blocks the caller.
void loop_barrier(TransportBroker& broker) { (void)broker.metrics_json(); }

/// Decomposes pool document `pool` into path publications and sends them.
void send_doc(Live& live, const Inputs& inputs, std::size_t pool,
              std::uint64_t doc) {
  const std::string& text = inputs.docs[pool];
  std::vector<Path> paths = stream_extract_paths(text);
  const auto count = static_cast<std::uint32_t>(paths.size());
  for (std::uint32_t k = 0; k < count; ++k) {
    PublishMsg msg;
    msg.path = std::move(paths[k]);
    msg.doc_id = doc;
    msg.path_id = k;
    msg.doc_bytes = text.size();
    msg.paths_in_doc = count;
    live.publisher->send(Message{std::move(msg)});
  }
}

/// First pool document the full table is owed something from.
std::size_t probe_doc(const Inputs& inputs,
                      const std::vector<std::vector<std::uint32_t>>& wanted) {
  for (std::size_t d = 0; d < inputs.docs.size(); ++d) {
    if (!wanted[d].empty()) return d;
  }
  throw std::runtime_error("no document in the pool matches the table");
}

/// Starts the overlay, floods advertisements, loads the table in barriered
/// batches and waits for a probe document. Returns the seconds it took.
double set_up(Live& live, const Inputs& inputs,
              const std::vector<std::vector<std::uint32_t>>& wanted,
              DeliveryOracle& deliveries) {
  const std::int64_t start = now_ns();
  live.overlay = std::make_unique<LoopbackOverlay>(
      chain(2), LoopbackOverlay::Options{});
  if (!live.overlay->start()) throw LiveFailure("overlay link handshake");
  live.publisher = &live.overlay->attach_client(0, 100);
  live.subscriber = &live.overlay->attach_client(1, 200);
  if (!live.publisher->connected() || !live.subscriber->connected()) {
    throw LiveFailure("client handshake");
  }
  std::shared_ptr<Arrivals> arrivals = live.arrivals;
  live.subscriber->set_message_handler(
      [arrivals](const Message& msg) { arrivals->on_message(msg); });

  TransportBroker& b0 = live.b0();
  TransportBroker& b1 = live.b1();
  for (const Advertisement& adv : inputs.ads) {
    live.publisher->send(Message::advertise(adv, 0));
  }
  const std::uint64_t ads = inputs.ads.size();
  wait_for([&] { return b0.frames_in() >= ads; }, 30, "advertisements at b0");
  loop_barrier(b0);
  const std::uint64_t flooded = b0.frames_out();
  wait_for([&] { return b1.frames_in() >= flooded; }, 30,
           "advertisements at b1");
  loop_barrier(b1);

  // The table, in batches small enough that no batch holds a broker loop
  // near the heartbeat suspect bound.
  const std::uint64_t in1 = b1.frames_in();
  const std::uint64_t in0 = b0.frames_in();
  const std::uint64_t out1 = b1.frames_out();
  for (std::size_t begin = 0; begin < inputs.table_size;
       begin += kSubscribeBatch) {
    const std::size_t end =
        std::min(begin + kSubscribeBatch, inputs.table_size);
    for (std::size_t i = begin; i < end; ++i) {
      live.subscriber->send(Message::subscribe(inputs.xpes[i]));
    }
    wait_for([&] { return b1.frames_in() >= in1 + end; }, 30,
             "subscribes at b1");
    loop_barrier(b1);
    const std::uint64_t forwarded = b1.frames_out() - out1;
    wait_for([&] { return b0.frames_in() >= in0 + forwarded; }, 30,
             "forwarded subscribes at b0");
    loop_barrier(b0);
  }

  const std::size_t pool = probe_doc(inputs, wanted);
  const std::uint64_t doc = live.next_doc++;
  deliveries.expect(doc, wanted[pool]);
  send_doc(live, inputs, pool, doc);
  wait_for([&] { return live.arrivals->first_ns(doc) != 0; }, 30,
           "the probe document");
  return static_cast<double>(now_ns() - start) / 1e9;
}

void tear_down(Live& live) {
  if (live.overlay) live.overlay->stop();
  live.overlay.reset();
  // Hand the overlay's memory back, so the next set-up's peak resident set
  // does not stack on this one's in whichever malloc arenas its threads got.
  malloc_trim(0);
}

/// A document sent in the timed window.
struct Sent {
  std::uint64_t doc = 0;
  std::size_t pool = 0;
  std::int64_t due_ns = 0;
  bool owed = false;
};

/// The set of XPEs broker 1's routing table holds, read from its snapshot.
std::set<Xpe> live_table(TransportBroker& broker) {
  std::set<Xpe> out;
  std::istringstream in(broker.state_snapshot());
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("sub\t", 0) != 0) continue;
    const std::size_t end = line.find('\t', 4);
    out.insert(parse_xpe(line.substr(4, end - 4)));
  }
  return out;
}

/// What the overlays of one run measured, pooled.
struct Measured {
  std::vector<double> setups, notify_us, lag_us, sub_us, unsub_us;
  /// Median notify latency of each overlay.
  std::vector<double> overlay_p50;
  /// Pool document of each notify sample.
  std::vector<std::size_t> notify_pool;
  std::uint64_t documents_sent = 0;
  double delivered_docs = 0, delivered_s = 0;
  std::uint64_t control_ops = 0, table_mismatches = 0;
  DeliveryOracle::Verdict verdict;
  std::uint64_t frames_in_b0 = 0, frames_in_b1 = 0, backpressure = 0;
  bool lost = false;
  std::string failure;
  /// Last overlay only (the traced run's single overlay): what was sent
  /// and which paths of each document arrived.
  std::vector<Sent> sent;
  std::vector<std::vector<std::uint32_t>> live_paths;
};

/// The timed publish window on one overlay, then a drain.
void publish_window(Live& live, const Inputs& inputs,
                    const std::vector<std::vector<std::uint32_t>>& wanted,
                    DeliveryOracle& deliveries, bool open_loop, double seconds,
                    Measured& m) {
  TransportBroker& b0 = live.b0();
  TransportBroker& b1 = live.b1();
  const std::uint64_t b0_before = b0.frames_in();
  const std::uint64_t b1_before = b1.frames_in();
  Arrivals& arrivals = *live.arrivals;
  const std::int64_t window_start = now_ns() + 2'000'000;
  const std::int64_t window_end =
      window_start + static_cast<std::int64_t>(seconds * 1e9);
  const std::uint64_t base = arrivals.first_count();
  const double period_ns = 1e9 / kOpenRate;
  std::uint64_t owed_sent = 0;
  m.sent.clear();
  for (std::uint64_t i = 0;; ++i) {
    std::int64_t due;
    if (open_loop) {
      due = window_start +
            static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
      if (due >= window_end) break;
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(due)));
      m.lag_us.push_back(static_cast<double>(now_ns() - due) / 1e3);
    } else {
      // A slot frees when an owed document's first path arrives.
      bool waited = false;
      std::int64_t freed = 0;
      const bool open = arrivals.wait(
          [&] {
            const bool free =
                owed_sent - (arrivals.first_count_locked() - base) < kWindow;
            if (!free) waited = true;
            freed = arrivals.last_first_ns_locked();
            return free;
          },
          window_end);
      due = now_ns();
      if (!open || due >= window_end) break;
      m.lag_us.push_back(waited ? static_cast<double>(due - freed) / 1e3 : 0.0);
    }
    Sent sent;
    sent.doc = live.next_doc++;
    sent.pool = static_cast<std::size_t>(m.documents_sent++ %
                                         inputs.docs.size());
    sent.due_ns = due;
    sent.owed = !wanted[sent.pool].empty();
    owed_sent += sent.owed ? 1 : 0;
    deliveries.expect(sent.doc, wanted[sent.pool]);
    send_doc(live, inputs, sent.pool, sent.doc);
    m.sent.push_back(sent);
  }

  // Drain: links are FIFO, so once the sentinel's last owed path is in,
  // every earlier delivery is too.
  const std::size_t sentinel_pool = probe_doc(inputs, wanted);
  const std::uint64_t sentinel = live.next_doc++;
  deliveries.expect(sentinel, wanted[sentinel_pool]);
  send_doc(live, inputs, sentinel_pool, sentinel);
  const std::size_t sentinel_paths = wanted[sentinel_pool].size();
  if (!arrivals.wait(
          [&] { return arrivals.paths_locked(sentinel) >= sentinel_paths; },
          now_ns() + 20'000'000'000)) {
    throw LiveFailure("drain: the sentinel document never arrived");
  }
  m.frames_in_b0 += b0.frames_in() - b0_before;
  m.frames_in_b1 += b1.frames_in() - b1_before;

  // Notify latency: scheduled send to the first matching path. Delivered
  // rate: owed documents over the time from the window's start to the last
  // of their first arrivals.
  std::int64_t last_first = window_start;
  const std::size_t first_sample = m.notify_us.size();
  for (const Sent& sent : m.sent) {
    if (!sent.owed) continue;
    const std::int64_t first = arrivals.first_ns(sent.doc);
    if (first == 0) continue;
    m.notify_us.push_back(static_cast<double>(first - sent.due_ns) / 1e3);
    m.notify_pool.push_back(sent.pool);
    m.delivered_docs += 1;
    last_first = std::max(last_first, first);
  }
  m.delivered_s += static_cast<double>(last_first - window_start) / 1e9;
  m.overlay_p50.push_back(percentile(
      std::vector<double>(m.notify_us.begin() + static_cast<long>(first_sample),
                          m.notify_us.end()),
      0.5));
}

/// One script round of control ops on the live overlay, sent in bursts:
/// the frames queue at broker 1, which handles them back to back, and this
/// thread watches its frame counter. The time from one control frame
/// reaching the handler to the next one doing so is the op's time at
/// broker 1 (handle, forwards, next decode); the last op of a burst has no
/// successor and is not timed. Bursts stay far below the heartbeat suspect
/// bound. After each of the round's two cycles broker 1's table must be
/// the script's live set: after the first it holds the fresh XPEs and
/// lacks the table XPEs it swapped out, so a dropped op of either kind
/// shows; after the second it is the initial table again.
void control_round(Live& live, const Inputs& inputs, ControlScript& script,
                   Measured& m) {
  TransportBroker& b1 = live.b1();
  std::vector<ControlScript::Op> burst;
  std::vector<std::int64_t> reached;
  for (std::size_t done = 0; done < script.round_ops(); done += kControlBurst) {
    burst.clear();
    for (std::size_t n = 0; n < kControlBurst; ++n) {
      burst.push_back(script.next());
    }
    const std::uint64_t base = b1.frames_in();
    for (const ControlScript::Op& op : burst) {
      const Xpe& xpe = inputs.xpes[op.xpe];
      live.subscriber->send(op.subscribe ? Message::subscribe(xpe)
                                         : Message::unsubscribe(xpe));
    }
    // reached[k]: when the counter first read base + k + 1.
    reached.assign(burst.size(), 0);
    std::uint64_t seen = base;
    const std::int64_t deadline = now_ns() + 20'000'000'000;
    while (seen < base + burst.size()) {
      const std::uint64_t count = b1.frames_in();
      if (count == seen) {
        if (now_ns() > deadline) throw LiveFailure("control ops at b1");
        continue;
      }
      const std::int64_t at = now_ns();
      for (std::uint64_t k = seen; k < count && k < base + burst.size(); ++k) {
        reached[k - base] = at;
      }
      seen = count;
    }
    loop_barrier(b1);
    for (std::size_t k = 0; k + 1 < burst.size(); ++k) {
      const double us = static_cast<double>(reached[k + 1] - reached[k]) / 1e3;
      (burst[k].subscribe ? m.sub_us : m.unsub_us).push_back(us);
    }
    m.control_ops += burst.size();
    if ((done + kControlBurst) % script.cycle_ops() != 0) continue;
    std::set<Xpe> expected;
    for (std::size_t i : script.live()) expected.insert(inputs.xpes[i]);
    const std::set<Xpe> table = live_table(b1);
    std::vector<Xpe> diff;
    std::set_symmetric_difference(table.begin(), table.end(),
                                  expected.begin(), expected.end(),
                                  std::back_inserter(diff));
    m.table_mismatches += diff.size();
  }
}

void add_verdict(DeliveryOracle::Verdict& sum,
                 const DeliveryOracle::Verdict& v) {
  sum.docs += v.docs;
  sum.owed_docs += v.owed_docs;
  sum.owed_paths += v.owed_paths;
  sum.missed += v.missed;
  sum.spurious += v.spurious;
  sum.duplicates += v.duplicates;
  sum.failed_docs += v.failed_docs;
}

}  // namespace

Result run_publish(const Inputs& inputs, const RunOptions& options,
                   bool open_loop) {
  TableOracle oracle(inputs);
  for (std::size_t i = 0; i < inputs.table_size; ++i) {
    oracle.add(inputs.xpes[i]);
  }
  std::vector<std::vector<std::uint32_t>> wanted(inputs.docs.size());
  for (std::size_t d = 0; d < inputs.docs.size(); ++d) {
    wanted[d] = oracle.wanted(d);
  }

  // Each set-up is followed by its own share of the publish window and one
  // control round, so the run's samples come from kSetups independent
  // overlays (connections) rather than one.
  const int overlays = options.trace ? 1 : kSetups;
  const double window_s =
      options.seconds * (1.0 - kControlShare) / static_cast<double>(overlays);
  Measured m;
  ControlScript script(inputs, kRoundPairs, options.seed);
  for (int o = 0; o < overlays && !m.lost; ++o) {
    Live live;
    DeliveryOracle deliveries;
    try {
      m.setups.push_back(set_up(live, inputs, wanted, deliveries));
      publish_window(live, inputs, wanted, deliveries, open_loop, window_s, m);
      control_round(live, inputs, script, m);
      TransportBroker& b0 = live.b0();
      TransportBroker& b1 = live.b1();
      m.backpressure +=
          b0.backpressure_engagements() + b1.backpressure_engagements();
      if (b0.heartbeat_downs() + b1.heartbeat_downs() > 0 ||
          b0.broker_peers() != 1 || b1.broker_peers() != 1) {
        m.lost = true;
        m.failure = "a broker lost its peer (heartbeat down)";
      }
    } catch (const LiveFailure& e) {
      m.lost = true;
      m.failure = e.what();
    }
    tear_down(live);
    const auto log = live.arrivals->log();
    for (const auto& [doc, path] : log) deliveries.arrived(doc, path);
    add_verdict(m.verdict, deliveries.judge());
    m.live_paths.assign(live.next_doc, {});
    for (const auto& [doc, path] : log) {
      if (doc < m.live_paths.size()) m.live_paths[doc].push_back(path);
    }
  }

  // ---- Verdict ---------------------------------------------------------
  const DeliveryOracle::Verdict& v = m.verdict;
  Result result;
  result.attempted = v.docs + m.control_ops;
  result.failed = v.failed_docs + m.table_mismatches;
  if (m.lost) {
    // Never retried or re-seeded: every owed document of the run fails.
    std::fprintf(stderr,
                 "FAILED %s seed %llu: %s; every owed delivery counts as "
                 "failed\n",
                 options.workload.c_str(),
                 static_cast<unsigned long long>(options.seed),
                 m.failure.c_str());
    result.failed = std::max<std::uint64_t>(result.failed, v.owed_docs + 1);
    result.attempted = std::max(result.attempted, result.failed);
  }
  std::printf(
      "oracle: %llu documents, %llu owed paths, %llu missed, %llu spurious, "
      "%llu duplicate; %llu control ops, %llu table entries off\n",
      static_cast<unsigned long long>(v.docs),
      static_cast<unsigned long long>(v.owed_paths),
      static_cast<unsigned long long>(v.missed),
      static_cast<unsigned long long>(v.spurious),
      static_cast<unsigned long long>(v.duplicates),
      static_cast<unsigned long long>(m.control_ops),
      static_cast<unsigned long long>(m.table_mismatches));
  const std::vector<double>& notify_us = m.notify_us;
  std::printf("notify us: p10 %.0f p25 %.0f p50 %.0f p75 %.0f p90 %.0f "
              "p99 %.0f max %.0f\n",
              percentile(notify_us, 0.1), percentile(notify_us, 0.25),
              percentile(notify_us, 0.5), percentile(notify_us, 0.75),
              percentile(notify_us, 0.9), percentile(notify_us, 0.99),
              percentile(notify_us, 1.0));

  if (!options.trace) {
    result.add("setup_s", "s", median(m.setups));
    result.add("notify_p50_us", "us", median(m.overlay_p50));
    result.add("notify_p99_us", "us",
               block_percentile(notify_us, kNotifyBlock, 0.99));
    result.add("pub_docs_per_s", "1/s",
               m.delivered_s > 0 ? m.delivered_docs / m.delivered_s : 0.0);
    result.add("subscribe_p50_us", "us", percentile(m.sub_us, 0.5));
    result.add("subscribe_mean_us", "us", mean(m.sub_us));
    result.add("unsubscribe_p50_us", "us", percentile(m.unsub_us, 0.5));
    result.add("unsubscribe_p99_us", "us", percentile(m.unsub_us, 0.99));
    result.add("peak_rss_mb", "MiB", peak_rss_mb());
    result.correct = result.failed == 0;
    std::printf("samples: %zu notified documents, %zu subscribes, %zu "
                "unsubscribes (mean %.1f us, max %.1f us), %zu set-ups\n",
                notify_us.size(), m.sub_us.size(), m.unsub_us.size(),
                mean(m.unsub_us), percentile(m.unsub_us, 1.0),
                m.setups.size());
    return result;
  }

  // ---- Traced in-process replay of the same inputs ----------------------
  Tracer tracer;
  Chain chain(&tracer);
  ReplayCounts counts;
  for (const Advertisement& adv : inputs.ads) chain.advertise(adv);
  std::uint64_t request = 0;
  auto control = [&](const Message& msg, bool subscribe) {
    const std::uint64_t before = chain.forwards(1);
    chain.control(wire::encode_frame(msg), request++);
    const std::uint64_t forwards = chain.forwards(1) - before;
    if (subscribe) {
      ++counts.subscribes;
      counts.subscribe_forwards += forwards;
    } else {
      ++counts.unsubscribes;
      counts.unsubscribe_forwards += forwards;
    }
  };
  for (std::size_t i = 0; i < inputs.table_size; ++i) {
    control(Message::subscribe(inputs.xpes[i]), true);
  }

  const std::size_t pool_docs = inputs.docs.size();
  const Chain::Deliver ignore = [](std::uint64_t, std::uint32_t,
                                   std::int64_t) {};
  // A warm-up pass (lazy indexes, caches), then one timed pass without
  // spans for the tracing overhead; fresh document ids each time.
  chain.set_tracing(false);
  std::int64_t t0 = 0;
  for (int pass = 1; pass <= 2; ++pass) {
    t0 = now_ns();
    for (std::size_t d = 0; d < pool_docs; ++d) {
      const std::uint64_t doc = (static_cast<std::uint64_t>(pass) << 40) + d;
      chain.publish(inputs.docs[d], doc, ignore);
    }
  }
  counts.untraced_doc_ns = static_cast<double>(now_ns() - t0);
  chain.set_tracing(true);

  std::vector<std::vector<std::uint32_t>> replayed(pool_docs);
  std::vector<Chain::DocTimes> times(pool_docs);
  const Chain::Deliver record = [&](std::uint64_t doc, std::uint32_t path,
                                    std::int64_t) {
    replayed[doc].push_back(path);
  };
  const std::uint64_t frames0 = chain.link_frames();
  const std::uint64_t bytes0 = chain.link_bytes();
  const std::uint64_t deliveries0 = chain.deliveries(),
                      suppressed0 = chain.suppressed();
  const std::size_t spans0 = tracer.spans().size();
  t0 = now_ns();
  for (std::size_t d = 0; d < pool_docs; ++d) {
    chain.publish(inputs.docs[d], d, record, &times[d]);
  }
  double traced = static_cast<double>(now_ns() - t0);
  for (std::size_t i = spans0; i < tracer.spans().size(); ++i) {
    const Tracer::Span& span = tracer.spans()[i];
    if (tracer.name(span.layer).rfind("probe.", 0) == 0) {
      traced -= static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  counts.traced_doc_ns = traced;
  counts.docs = pool_docs;
  counts.link_frames = chain.link_frames() - frames0;
  counts.link_bytes = chain.link_bytes() - bytes0;
  counts.deliveries = chain.deliveries() - deliveries0;
  counts.suppressed = chain.suppressed() - suppressed0;

  // The same control ops the live overlay ran.
  ControlScript again(inputs, kRoundPairs, options.seed);
  for (std::uint64_t i = 0; i < m.control_ops; ++i) {
    const ControlScript::Op op = again.next();
    const Xpe& xpe = inputs.xpes[op.xpe];
    control(op.subscribe ? Message::subscribe(xpe) : Message::unsubscribe(xpe),
            op.subscribe);
  }
  counts.table_size_b0 = chain.b0().prt_size();

  // The replay must deliver what the live overlay delivered.
  std::uint64_t replay_mismatches = 0;
  for (std::vector<std::uint32_t>& paths : replayed) {
    std::sort(paths.begin(), paths.end());
  }
  for (const Sent& s : m.sent) {
    std::vector<std::uint32_t>& got = m.live_paths[s.doc];
    std::sort(got.begin(), got.end());
    if (got != replayed[s.pool]) ++replay_mismatches;
  }
  std::printf("traced replay: %zu documents, delivered set %s the live run's "
              "(%llu documents differ)\n",
              pool_docs, replay_mismatches == 0 ? "equals" : "DIFFERS FROM",
              static_cast<unsigned long long>(replay_mismatches));
  result.failed += replay_mismatches;

  LiveFigures figures;
  figures.frames_in_b0 = static_cast<double>(m.frames_in_b0);
  figures.frames_in_b1 = static_cast<double>(m.frames_in_b1);
  figures.backpressure = static_cast<double>(m.backpressure);
  figures.lag_us = m.lag_us;
  std::vector<CriticalPath> crit(pool_docs);
  for (std::size_t d = 0; d < pool_docs; ++d) {
    crit[d] = critical_path(times[d], /*pipelined=*/true);
  }
  std::vector<CriticalPath> notified_crit;
  for (std::size_t i = 0; i < notify_us.size(); ++i) {
    const CriticalPath& cp = crit[m.notify_pool[i]];
    notified_crit.push_back(cp);
    figures.residual_us.push_back(notify_us[i] - cp.total() / 1e3);
  }
  print_breakdown(notified_crit, notify_us, figures.residual_us);
  add_layer_metrics(result, tracer, chain, counts, figures);
  if (!options.spans_file.empty()) tracer.write_csv(options.spans_file);
  result.correct = result.failed == 0;
  return result;
}

}  // namespace perfbench
