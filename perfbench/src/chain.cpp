#include "chain.hpp"

#include <stdexcept>
#include <utility>

#include "wire/codec.hpp"
#include "xml/stream_parser.hpp"

namespace perfbench {

using namespace xroute;

namespace {

constexpr IfaceId kLink{0};
constexpr IfaceId kClient{1};

std::unique_ptr<Broker> make_broker(int id) {
  auto broker = std::make_unique<Broker>(id, Broker::Config{});
  broker->add_neighbor(kLink);
  broker->add_client(kClient);
  return broker;
}

}  // namespace

/// Encodes what a broker emits and queues it for the interface's far end.
class Chain::Sink : public ForwardSink {
 public:
  Sink(Chain* chain, int broker, std::uint64_t request, std::int32_t parent)
      : chain_(chain), broker_(broker), request_(request), parent_(parent) {}

  void on_event(const DeliveryEvent& event) override {
    if (event.kind == DeliveryEvent::Kind::kSuppressed) {
      ++chain_->suppressed_;
      return;
    }
    Pending out;
    if (event.frame.empty()) {
      Tracer* tracer = chain_->tracer_;
      const std::int32_t span =
          tracer ? tracer->open(chain_->layer_.encode_ctl, request_, parent_)
                 : Tracer::kNoParent;
      out.bytes = wire::encode_frame(event.message());
      if (tracer) tracer->close(span);
    } else {
      out.bytes.assign(event.frame.begin(), event.frame.end());
    }
    const bool to_client = event.iface == kClient;
    if (broker_ == 0) {
      out.dest = to_client ? kPublisher : kB1;
    } else {
      out.dest = to_client ? kSubscriber : kB0;
    }
    out.from = to_client ? kClient : kLink;
    if (event.kind == DeliveryEvent::Kind::kLocalDelivery) {
      ++chain_->deliveries_;
    } else {
      ++chain_->forwards_[broker_];
    }
    chain_->enqueue(std::move(out));
  }

 private:
  Chain* chain_;
  int broker_;
  std::uint64_t request_;
  std::int32_t parent_;
};

Chain::Chain(Tracer* tracer)
    : owner_tracer_(tracer),
      tracer_(tracer),
      b0_(make_broker(0)),
      b1_(make_broker(1)),
      shadow_(/*covering=*/true, /*track_covered=*/true) {
  if (tracer_) {
    Tracer& t = *tracer_;
    layer_ = Layers{t.layer("doc"),
                    t.layer("xml.extract"),
                    t.layer("wire.encode"),
                    t.layer("wire.decode.b0"),
                    t.layer("router.handle.b0"),
                    t.layer("wire.decode.b1"),
                    t.layer("router.handle.b1"),
                    t.layer("wire.decode.sub"),
                    t.layer("probe.index.match.b0"),
                    t.layer("probe.index.match.b1"),
                    t.layer("ctl"),
                    t.layer("wire.decode.ctl"),
                    t.layer("router.handle.sub"),
                    t.layer("router.handle.unsub"),
                    t.layer("wire.encode.ctl"),
                    t.layer("probe.index.insert"),
                    t.layer("probe.index.remove"),
                    t.layer("probe.adv.overlap"),
                    t.layer("wire.decode.ctl.b0"),
                    t.layer("router.handle.ctl.b0")};
  }
}

void Chain::enqueue(Pending pending) {
  ++link_frames_;
  link_bytes_ += pending.bytes.size();
  queue_.push_back(std::move(pending));
}

void Chain::advertise(const Advertisement& adv) {
  // Set-up traffic is not traced.
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  enqueue(Pending{kB0, kClient,
                  wire::encode_frame(Message::advertise(adv, 0))});
  pump(nullptr, 0, Tracer::kNoParent);
  tracer_ = tracer;
}

std::int64_t Chain::control(const std::vector<std::uint8_t>& frame,
                            std::uint64_t request) {
  const std::int32_t root =
      tracer_ ? tracer_->open(layer_.ctl, request) : Tracer::kNoParent;
  enqueue(Pending{kB1, kClient, frame});
  Pending first = std::move(queue_.front());
  queue_.pop_front();
  std::int64_t spent = 0;
  handle_frame(1, first, nullptr, request, root, &spent);
  pump(nullptr, request, root);
  if (tracer_) tracer_->close(root);
  return spent;
}

void Chain::publish(const std::string& text, std::uint64_t doc,
                    const Deliver& deliver, DocTimes* times) {
  deliver_ = &deliver;
  const std::int32_t root =
      tracer_ ? tracer_->open(layer_.doc, doc) : Tracer::kNoParent;
  std::vector<Path> paths;
  {
    const std::int32_t span = tracer_
                                  ? tracer_->open(layer_.extract, doc, root)
                                  : Tracer::kNoParent;
    paths = stream_extract_paths(text);
    if (tracer_) {
      const std::int64_t ns = tracer_->close(span);
      if (times) times->extract = static_cast<double>(ns);
    }
  }
  if (times) times->paths.assign(paths.size(), PathTimes{});
  const auto count = static_cast<std::uint32_t>(paths.size());
  for (std::uint32_t k = 0; k < count; ++k) {
    PublishMsg msg;
    msg.path = std::move(paths[k]);
    msg.doc_id = doc;
    msg.path_id = k;
    msg.doc_bytes = text.size();
    msg.paths_in_doc = count;
    Pending pending{kB0, kClient, {}};
    {
      const std::int32_t span = tracer_
                                    ? tracer_->open(layer_.encode, doc, root)
                                    : Tracer::kNoParent;
      pending.bytes = wire::encode_frame(Message{std::move(msg)});
      if (tracer_) {
        const std::int64_t ns = tracer_->close(span);
        if (times) times->paths[k].encode = static_cast<double>(ns);
      }
    }
    enqueue(std::move(pending));
    pump(times ? &times->paths[k] : nullptr, doc, root);
  }
  if (tracer_) tracer_->close(root);
  deliver_ = nullptr;
}

void Chain::pump(PathTimes* times, std::uint64_t request, std::int32_t parent) {
  while (!queue_.empty()) {
    Pending next = std::move(queue_.front());
    queue_.pop_front();
    switch (next.dest) {
      case kB0:
        handle_frame(0, next, times, request, parent, nullptr);
        break;
      case kB1:
        handle_frame(1, next, times, request, parent, nullptr);
        break;
      case kSubscriber: {
        const std::int32_t span =
            tracer_ ? tracer_->open(layer_.decode_sub, request, parent)
                    : Tracer::kNoParent;
        wire::Decoded decoded = wire::decode_frame(next.bytes);
        if (!decoded.ok() || decoded.message.type() != MessageType::kPublish) {
          throw std::runtime_error("subscriber received a bad frame");
        }
        const auto& pub = std::get<PublishMsg>(decoded.message.payload);
        const std::int64_t at = now_ns();
        if (tracer_) {
          const std::int64_t ns = tracer_->close(span);
          if (times) {
            times->delivered = true;
            times->decode_sub = static_cast<double>(ns);
          }
        }
        if (deliver_) (*deliver_)(pub.doc_id, pub.path_id, at);
        break;
      }
      case kPublisher:
        break;
    }
  }
}

void Chain::handle_frame(int broker, const Pending& frame, PathTimes* times,
                         std::uint64_t request, std::int32_t parent,
                         std::int64_t* spent) {
  const std::int64_t start = now_ns();
  const bool traced = tracer_ != nullptr;
  const auto kind = static_cast<wire::FrameKind>(
      frame.bytes.size() > 3 ? frame.bytes[3] : 0);
  const bool control = kind != wire::FrameKind::kPublish;
  Broker& target = broker == 0 ? *b0_ : *b1_;

  std::uint16_t decode_layer, handle_layer;
  if (control) {
    decode_layer = broker == 1 ? layer_.decode_ctl : layer_.decode_ctl_b0;
    if (broker == 0) {
      handle_layer = layer_.handle_ctl_b0;
    } else if (kind == wire::FrameKind::kSubscribe) {
      handle_layer = layer_.handle_sub;
    } else {
      handle_layer = layer_.handle_unsub;
    }
  } else {
    decode_layer = broker == 1 ? layer_.decode_b1 : layer_.decode_b0;
    handle_layer = broker == 1 ? layer_.handle_b1 : layer_.handle_b0;
  }

  std::int32_t span =
      traced ? tracer_->open(decode_layer, request, parent) : Tracer::kNoParent;
  wire::Decoded decoded = wire::decode_frame(frame.bytes);
  if (!decoded.ok() || !decoded.is_message()) {
    throw std::runtime_error("broker received a bad frame");
  }
  const std::int64_t decode_ns = traced ? tracer_->close(span) : 0;
  ++frames_in_[broker];

  span = traced ? tracer_->open(handle_layer, request, parent)
                : Tracer::kNoParent;
  {
    Sink sink(this, broker, request, span);
    const bool publication = decoded.message.type() == MessageType::kPublish;
    Broker::Inbound one{frame.from, &decoded.message,
                        publication ? decoded.raw
                                    : std::span<const std::uint8_t>{}};
    target.handle_batch(std::span<const Broker::Inbound>(&one, 1), sink);
  }
  const std::int64_t handle_ns = traced ? tracer_->close(span) : 0;
  if (spent) *spent = now_ns() - start;
  if (!traced) return;

  if (times && !control) {
    if (broker == 0) {
      times->decode_b0 = static_cast<double>(decode_ns);
      times->handle_b0 = static_cast<double>(handle_ns);
    } else {
      times->forwarded = true;
      times->decode_b1 = static_cast<double>(decode_ns);
      times->handle_b1 = static_cast<double>(handle_ns);
    }
  }

  // Probes: one layer's public function on its own, after the real call.
  const Message& msg = decoded.message;
  switch (msg.type()) {
    case MessageType::kPublish: {
      const Path& path = std::get<PublishMsg>(msg.payload).path;
      const std::size_t before = target.prt().comparisons();
      tracer_->time(broker == 0 ? layer_.match_b0 : layer_.match_b1, request,
                    parent, [&] { (void)target.prt().match_hops(path); });
      if (broker == 1) {
        probe_comparisons_ += target.prt().comparisons() - before;
        ++probes_;
      }
      break;
    }
    case MessageType::kSubscribe:
      if (broker == 1) {
        const Xpe& xpe = std::get<SubscribeMsg>(msg.payload).xpe;
        const std::size_t comparisons = shadow_.comparisons();
        const std::size_t hits = shadow_.tree()->cover_cache_hits();
        tracer_->time(layer_.insert, request, parent,
                      [&] { (void)shadow_.insert(xpe, kClient); });
        insert_comparisons_ += shadow_.comparisons() - comparisons;
        insert_cache_hits_ += shadow_.tree()->cover_cache_hits() - hits;
        tracer_->time(layer_.overlap, request, parent,
                      [&] { (void)target.srt().hops_overlapping(xpe); });
      }
      break;
    case MessageType::kUnsubscribe:
      if (broker == 1) {
        const Xpe& xpe = std::get<UnsubscribeMsg>(msg.payload).xpe;
        tracer_->time(layer_.remove, request, parent,
                      [&] { (void)shadow_.remove(xpe, kClient); });
      }
      break;
    default:
      break;
  }
}

}  // namespace perfbench
