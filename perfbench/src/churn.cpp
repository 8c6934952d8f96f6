// control_churn: grow broker 1's table to N through Broker::handle, then
// alternate subscribing a fresh XPE with unsubscribing a live one (the
// ControlScript's rounds), with a publication document after every few
// control ops.
//
// The chain is in-process (TCP carries no acknowledgement a subscribe
// could be timed against): each op is a wire-decoded frame through broker
// 1's handle(), forwards are wire-encoded by the sink, and broker 0
// handles what broker 1 forwarded, as the live overlay would.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <vector>

#include "layers.hpp"
#include "oracle.hpp"
#include "wire/codec.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace xroute;

namespace {

std::vector<std::uint8_t> control_frame(const Inputs& inputs,
                                        const ControlScript::Op& op) {
  const Xpe& xpe = inputs.xpes[op.xpe];
  return wire::encode_frame(op.subscribe ? Message::subscribe(xpe)
                                         : Message::unsubscribe(xpe));
}

/// Advertisements and the table through the chain; returns seconds.
double load(Chain& chain, const Inputs& inputs, std::uint64_t* request) {
  const std::int64_t start = now_ns();
  for (const Advertisement& adv : inputs.ads) chain.advertise(adv);
  for (std::size_t i = 0; i < inputs.table_size; ++i) {
    chain.control(wire::encode_frame(Message::subscribe(inputs.xpes[i])),
                  (*request)++);
  }
  return static_cast<double>(now_ns() - start) / 1e9;
}

}  // namespace

Result run_churn(const Inputs& inputs, const RunOptions& options) {
  Result result;
  std::vector<double> setups;
  std::unique_ptr<Chain> chain;
  std::uint64_t request = 0;
  for (int s = 0; s < (options.trace ? 1 : kSetups); ++s) {
    chain = std::make_unique<Chain>();
    request = 0;
    setups.push_back(load(*chain, inputs, &request));
  }

  TableOracle oracle(inputs);
  for (std::size_t i = 0; i < inputs.table_size; ++i) {
    oracle.add(inputs.xpes[i]);
  }
  DeliveryOracle deliveries;
  ControlScript script(inputs, kRoundPairs, options.seed);
  std::vector<double> sub_us, unsub_us, notify_us, lag_us, doc_ns;
  std::vector<double> notify_by_doc;  ///< -1: owed nothing or not notified
  std::uint64_t ops = 0, failed_ops = 0, docs = 0, delivered = 0;
  std::vector<std::int64_t> first_ns;
  const Chain::Deliver deliver = [&](std::uint64_t doc, std::uint32_t path,
                                     std::int64_t at) {
    deliveries.arrived(doc, path);
    if (first_ns[doc] == 0) first_ns[doc] = at;
  };

  const std::uint64_t frames0 = chain->frames_in(0);
  const std::uint64_t frames1 = chain->frames_in(1);
  // Whole rounds of the script only, so every run times the same mix of
  // ops and documents; a round starts if it is expected to end in time.
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  std::int64_t last_round_ns = 0;
  std::size_t rounds = 0;
  // Per round: mean subscribe time, and covering tests broker 1's cover
  // cache answered per subscribe (a round that reused earlier rounds'
  // answers would show here).
  std::vector<double> round_sub_us, round_hits;
  std::vector<ControlScript::Op> group;
  // One step: kChurnDocEvery control ops, then one document, due the
  // moment the last op returned.
  auto step = [&] {
    group.clear();
    std::int64_t due = 0;
    for (std::size_t j = 0; j < kChurnDocEvery; ++j) {
      const ControlScript::Op op = script.next();
      const std::int64_t ns =
          chain->control(control_frame(inputs, op), request++);
      due = now_ns();
      (op.subscribe ? sub_us : unsub_us)
          .push_back(static_cast<double>(ns) / 1e3);
      // The op's own outcome: the XPE is in the table iff subscribed, and
      // the table is back at N after each subscribe/unsubscribe pair.
      const Prt& prt = chain->b1().prt();
      const std::size_t size = inputs.table_size + (op.subscribe ? 1 : 0);
      if (prt.contains(inputs.xpes[op.xpe]) != op.subscribe ||
          prt.size() != size) {
        ++failed_ops;
      }
      group.push_back(op);
      ++ops;
    }

    const std::uint64_t doc = docs++;
    const std::size_t pool = static_cast<std::size_t>(doc % inputs.docs.size());
    first_ns.push_back(0);
    notify_by_doc.push_back(-1);
    const std::int64_t t0 = now_ns();
    lag_us.push_back(static_cast<double>(t0 - due) / 1e3);
    chain->publish(inputs.docs[pool], doc, deliver);
    doc_ns.push_back(static_cast<double>(now_ns() - t0));

    // Reference bookkeeping stays outside the timed calls.
    for (const ControlScript::Op& op : group) {
      if (op.subscribe) {
        oracle.add(inputs.xpes[op.xpe]);
      } else {
        oracle.remove(inputs.xpes[op.xpe]);
      }
    }
    const std::vector<std::uint32_t> owed = oracle.wanted(pool);
    deliveries.expect(doc, owed);
    if (!owed.empty() && first_ns[doc] != 0) {
      notify_by_doc[doc] = static_cast<double>(first_ns[doc] - due) / 1e3;
      notify_us.push_back(notify_by_doc[doc]);
      ++delivered;
    }
  };
  const SubscriptionTree& tree = *chain->b1().prt().tree();
  while (rounds < script.rounds()) {
    const std::int64_t round_start = now_ns();
    if (ops > 0 && round_start - start + last_round_ns > budget_ns) break;
    const std::size_t subs = sub_us.size();
    const std::size_t hits = tree.cover_cache_hits();
    for (std::size_t done = 0; done < script.round_ops();
         done += kChurnDocEvery) {
      step();
    }
    last_round_ns = now_ns() - round_start;
    ++rounds;
    const double n = static_cast<double>(sub_us.size() - subs);
    round_sub_us.push_back(
        mean(std::vector<double>(sub_us.begin() + static_cast<long>(subs),
                                 sub_us.end())));
    round_hits.push_back(
        static_cast<double>(tree.cover_cache_hits() - hits) / n);
  }
  const double window_s = static_cast<double>(now_ns() - start) / 1e9;
  std::printf("rounds: %zu (%zu available); mean subscribe us / cover-cache "
              "hits per subscribe, by round:",
              rounds, script.rounds());
  for (std::size_t r = 0; r < rounds; ++r) {
    std::printf(" %.0f/%.0f", round_sub_us[r], round_hits[r]);
  }
  std::printf("\n");

  // The final table must be exactly the script's live set.
  std::set<Xpe> expected;
  for (std::size_t i : script.live()) expected.insert(inputs.xpes[i]);
  std::vector<Xpe> all = chain->b1().prt().all_xpes();
  const std::set<Xpe> table(all.begin(), all.end());
  std::vector<Xpe> diff;
  std::set_symmetric_difference(table.begin(), table.end(), expected.begin(),
                                expected.end(), std::back_inserter(diff));
  failed_ops += diff.size();

  const DeliveryOracle::Verdict v = deliveries.judge();
  result.attempted = docs + ops;
  result.failed = v.failed_docs + failed_ops;
  std::printf(
      "oracle: %llu documents, %llu owed paths, %llu missed, %llu spurious, "
      "%llu duplicate; %llu control ops, %llu failed, final table %zu "
      "entries (%zu off)\n",
      static_cast<unsigned long long>(v.docs),
      static_cast<unsigned long long>(v.owed_paths),
      static_cast<unsigned long long>(v.missed),
      static_cast<unsigned long long>(v.spurious),
      static_cast<unsigned long long>(v.duplicates),
      static_cast<unsigned long long>(ops),
      static_cast<unsigned long long>(failed_ops), table.size(), diff.size());

  if (!options.trace) {
    result.add("setup_s", "s", median(setups));
    result.add("notify_p50_us", "us", percentile(notify_us, 0.5));
    result.add("notify_p99_us", "us",
               block_percentile(notify_us, kNotifyBlock, 0.99));
    result.add("pub_docs_per_s", "1/s",
               static_cast<double>(delivered) / window_s);
    result.add("subscribe_p50_us", "us", percentile(sub_us, 0.5));
    result.add("subscribe_mean_us", "us", mean(sub_us));
    result.add("unsubscribe_p50_us", "us", percentile(unsub_us, 0.5));
    result.add("unsubscribe_p99_us", "us", percentile(unsub_us, 0.99));
    result.add("peak_rss_mb", "MiB", peak_rss_mb());
    result.correct = result.failed == 0;
    std::printf("samples: %zu notified documents (mean %.1f us, max %.1f "
                "us), %zu subscribes, %zu unsubscribes (mean %.1f us, max "
                "%.1f us), %zu set-ups\n",
                notify_us.size(), mean(notify_us), percentile(notify_us, 1.0),
                sub_us.size(), unsub_us.size(), mean(unsub_us),
                percentile(unsub_us, 1.0), setups.size());
    return result;
  }

  // ---- Traced replay: same table, the script's first round -------------
  const std::uint64_t live_frames0 = chain->frames_in(0) - frames0;
  const std::uint64_t live_frames1 = chain->frames_in(1) - frames1;
  chain.reset();

  Tracer tracer;
  Chain traced(&tracer);
  ReplayCounts counts;
  request = 0;
  // Table load, op by op, so its forwards are counted like the script's.
  for (const Advertisement& adv : inputs.ads) traced.advertise(adv);
  auto control = [&](const std::vector<std::uint8_t>& frame, bool subscribe) {
    const std::uint64_t before = traced.forwards(1);
    traced.control(frame, request++);
    const std::uint64_t forwards = traced.forwards(1) - before;
    if (subscribe) {
      ++counts.subscribes;
      counts.subscribe_forwards += forwards;
    } else {
      ++counts.unsubscribes;
      counts.unsubscribe_forwards += forwards;
    }
  };
  for (std::size_t i = 0; i < inputs.table_size; ++i) {
    control(wire::encode_frame(Message::subscribe(inputs.xpes[i])), true);
  }

  DeliveryOracle replayed;
  std::vector<std::int64_t> replay_first(docs, 0);
  const Chain::Deliver record = [&](std::uint64_t doc, std::uint32_t path,
                                    std::int64_t at) {
    replayed.arrived(doc, path);
    if (replay_first[doc] == 0) replay_first[doc] = at;
  };
  ControlScript again(inputs, kRoundPairs, options.seed);
  const std::uint64_t replay_ops = again.round_ops();
  const std::uint64_t replay_docs = replay_ops / kChurnDocEvery;
  std::vector<Chain::DocTimes> times(replay_docs);
  for (std::uint64_t doc = 0; doc < replay_docs; ++doc) {
    for (std::size_t j = 0; j < kChurnDocEvery; ++j) {
      const ControlScript::Op op = again.next();
      control(control_frame(inputs, op), op.subscribe);
    }
    const std::size_t pool = static_cast<std::size_t>(doc % inputs.docs.size());
    const std::uint64_t frames = traced.link_frames();
    const std::uint64_t bytes = traced.link_bytes();
    const std::uint64_t delivered = traced.deliveries(),
                        suppressed = traced.suppressed();
    const std::size_t spans0 = tracer.spans().size();
    const std::int64_t t0 = now_ns();
    traced.publish(inputs.docs[pool], doc, record, &times[doc]);
    double ns = static_cast<double>(now_ns() - t0);
    for (std::size_t i = spans0; i < tracer.spans().size(); ++i) {
      const Tracer::Span& span = tracer.spans()[i];
      if (tracer.name(span.layer).rfind("probe.", 0) == 0) {
        ns -= static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    counts.traced_doc_ns += ns;
    counts.untraced_doc_ns += doc_ns[doc];
    counts.link_frames += traced.link_frames() - frames;
    counts.link_bytes += traced.link_bytes() - bytes;
    counts.deliveries += traced.deliveries() - delivered;
    counts.suppressed += traced.suppressed() - suppressed;
  }
  counts.docs = replay_docs;
  counts.table_size_b0 = traced.b0().prt_size();

  // Same deliveries as the timed run, document by document.
  for (std::uint64_t doc = 0; doc < replay_docs; ++doc) {
    replayed.expect(doc, deliveries.owed(doc));
  }
  const DeliveryOracle::Verdict rv = replayed.judge();
  std::printf("traced replay: %llu documents, %llu control ops, delivered set "
              "%s the timed run's\n",
              static_cast<unsigned long long>(replay_docs),
              static_cast<unsigned long long>(replay_ops),
              rv.ok() ? "equals" : "DIFFERS FROM");
  result.failed += rv.failed_docs;

  LiveFigures figures;
  figures.frames_in_b0 = static_cast<double>(live_frames0);
  figures.frames_in_b1 = static_cast<double>(live_frames1);
  figures.lag_us = lag_us;
  std::vector<CriticalPath> notified;
  std::vector<double> notified_us;
  for (std::uint64_t doc = 0; doc < replay_docs; ++doc) {
    const CriticalPath cp = critical_path(times[doc], /*pipelined=*/false);
    if (!cp.notified || notify_by_doc[doc] < 0) continue;
    notified.push_back(cp);
    notified_us.push_back(notify_by_doc[doc]);
    figures.residual_us.push_back(notify_by_doc[doc] - cp.total() / 1e3);
  }
  print_breakdown(notified, notified_us, figures.residual_us);
  add_layer_metrics(result, tracer, traced, counts, figures);
  if (!options.spans_file.empty()) tracer.write_csv(options.spans_file);
  result.correct = result.failed == 0;
  return result;
}

}  // namespace perfbench
