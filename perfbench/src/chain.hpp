// In-process copy of the live overlay: broker 0 with the publisher
// attached, broker 1 with the subscriber attached, one link between them.
//
// Every message crosses the same layers it crosses over TCP, minus the
// sockets: the sender encodes a wire frame, the receiving broker decodes
// it and runs Broker::handle on it, and the sink encodes whatever the
// broker forwards (publications that arrived with their frame are resent
// byte for byte, as TransportBroker does). Interface ids are those the
// overlay assigns: on each broker the link is interface 0, the client
// interface 1. Frames wait in one FIFO, so each link stays in order.
//
// Given a Tracer, each call into a layer is wrapped in a span, and the
// traced run adds probe spans that call one layer's public function on
// its own (Prt::match_hops, Prt::insert/remove on a shadow table,
// Srt::hops_overlapping), so handle time can be split into index and
// router work. Probes are extra work; they are excluded from the tracing
// overhead and never feed an end-to-end metric.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "router/broker.hpp"

namespace perfbench {

class Chain {
 public:
  /// Per-path layer times of one traced document (nanoseconds), for the
  /// critical-path model.
  struct PathTimes {
    double encode = 0, decode_b0 = 0, handle_b0 = 0;
    bool forwarded = false;
    double decode_b1 = 0, handle_b1 = 0;
    bool delivered = false;
    double decode_sub = 0;
  };
  struct DocTimes {
    double extract = 0;
    std::vector<PathTimes> paths;
  };

  /// Called for each publication that reaches the subscriber.
  using Deliver = std::function<void(std::uint64_t doc, std::uint32_t path,
                                     std::int64_t at_ns)>;

  explicit Chain(Tracer* tracer = nullptr);

  Chain(const Chain&) = delete;
  Chain& operator=(const Chain&) = delete;

  /// The publisher at broker 0 advertises; the flood is pumped through.
  void advertise(const xroute::Advertisement& adv);

  /// One control frame from the subscriber at broker 1. Returns the
  /// nanoseconds spent decoding it and in broker 1's handle() (with its
  /// forwards encoded): the op latency at the subscriber's broker. Broker 0
  /// then handles whatever broker 1 forwarded, outside the returned time.
  std::int64_t control(const std::vector<std::uint8_t>& frame,
                       std::uint64_t request);

  /// Publishes `text` as document `doc`: stream extraction, one encoded
  /// frame per path, broker 0, broker 1, subscriber decode. Arrivals go to
  /// `deliver`. Traced runs also fill `times`.
  void publish(const std::string& text, std::uint64_t doc,
               const Deliver& deliver, DocTimes* times = nullptr);

  xroute::Broker& b0() { return *b0_; }
  xroute::Broker& b1() { return *b1_; }

  // Counters over the chain's life.
  std::uint64_t frames_in(int broker) const { return frames_in_[broker]; }
  std::uint64_t link_frames() const { return link_frames_; }
  std::uint64_t link_bytes() const { return link_bytes_; }
  std::uint64_t forwards(int broker) const { return forwards_[broker]; }
  std::uint64_t deliveries() const { return deliveries_; }
  std::uint64_t suppressed() const { return suppressed_; }

  /// The shadow table the insert/remove probes run on (traced runs).
  const xroute::Prt& shadow() const { return shadow_; }
  /// Comparisons broker 1's match probes made, and how many probes ran.
  std::uint64_t match_probe_comparisons() const { return probe_comparisons_; }
  std::uint64_t match_probes() const { return probes_; }
  /// Covering tests the insert probes requested, and how many of them the
  /// shadow tree's cover cache answered.
  std::uint64_t insert_comparisons() const { return insert_comparisons_; }
  std::uint64_t insert_cache_hits() const { return insert_cache_hits_; }
  /// Turns span recording off and on (a traced chain only).
  void set_tracing(bool on) { tracer_ = on ? owner_tracer_ : nullptr; }

 private:
  enum Dest { kB0 = 0, kB1 = 1, kSubscriber = 2, kPublisher = 3 };
  struct Pending {
    Dest dest = kB0;
    /// Interface the frame arrives on at a broker.
    xroute::IfaceId from = xroute::kNoIface;
    std::vector<std::uint8_t> bytes;
  };
  class Sink;

  void enqueue(Pending pending);

  /// Decodes and handles every queued frame; `times` (traced publish)
  /// collects the layer times of path `path`.
  void pump(PathTimes* times, std::uint64_t request, std::int32_t parent);
  void handle_frame(int broker, const Pending& frame, PathTimes* times,
                    std::uint64_t request, std::int32_t parent,
                    std::int64_t* spent);

  Tracer* owner_tracer_;
  Tracer* tracer_;
  std::unique_ptr<xroute::Broker> b0_;
  std::unique_ptr<xroute::Broker> b1_;
  xroute::Prt shadow_;
  std::deque<Pending> queue_;
  const Deliver* deliver_ = nullptr;
  std::uint64_t frames_in_[2] = {0, 0};
  std::uint64_t link_frames_ = 0;
  std::uint64_t link_bytes_ = 0;
  std::uint64_t forwards_[2] = {0, 0};
  std::uint64_t deliveries_ = 0;
  std::uint64_t suppressed_ = 0;
  std::uint64_t probe_comparisons_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t insert_comparisons_ = 0;
  std::uint64_t insert_cache_hits_ = 0;

  // Span layer ids (traced runs).
  struct Layers {
    std::uint16_t doc, extract, encode, decode_b0, handle_b0, decode_b1,
        handle_b1, decode_sub, match_b0, match_b1, ctl, decode_ctl,
        handle_sub, handle_unsub, encode_ctl, insert, remove, overlap,
        decode_ctl_b0, handle_ctl_b0;
  } layer_{};
};

}  // namespace perfbench
