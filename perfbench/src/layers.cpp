#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

namespace perfbench {

namespace {

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Self times (nanoseconds) of every span whose layer is `name`.
std::vector<double> self_ns(const Tracer& tracer, const std::string& name) {
  std::vector<double> out;
  for (const Tracer::Span& span : tracer.spans()) {
    if (tracer.name(span.layer) == name) out.push_back(Tracer::self_ns(span));
  }
  return out;
}

double mean_us(const Tracer& tracer, const std::string& name) {
  return mean(self_ns(tracer, name)) / 1e3;
}

double percentile_us(const Tracer& tracer, const std::string& name,
                     double q) {
  return percentile(self_ns(tracer, name), q) / 1e3;
}

}  // namespace

CriticalPath critical_path(const Chain::DocTimes& t, bool pipelined) {
  CriticalPath cp;
  const std::size_t n = t.paths.size();
  std::size_t first = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (t.paths[i].delivered) {
      first = i;
      break;
    }
  }
  if (first == n) return cp;
  cp.notified = true;
  cp.decode += t.paths[first].decode_sub;

  if (!pipelined) {
    cp.extract = t.extract;
    for (std::size_t i = 0; i <= first; ++i) {
      const Chain::PathTimes& p = t.paths[i];
      cp.encode += p.encode;
      cp.decode += p.decode_b0;
      cp.handle_b0 += p.handle_b0;
      if (p.forwarded) {
        cp.decode += p.decode_b1;
        cp.handle_b1 += p.handle_b1;
      }
    }
    return cp;
  }

  // Finish times per stage: publisher (extract, then one encode per path),
  // broker 0 (every path), broker 1 (forwarded paths only).
  std::vector<double> ready(n), f0(n), f1(n);
  std::vector<long> prev_fwd(n, -1);
  double encoded = t.extract;
  long last_fwd = -1;
  for (std::size_t i = 0; i < n; ++i) {
    const Chain::PathTimes& p = t.paths[i];
    encoded += p.encode;
    ready[i] = encoded;
    const double start0 = i > 0 ? std::max(ready[i], f0[i - 1]) : ready[i];
    f0[i] = start0 + p.decode_b0 + p.handle_b0;
    if (p.forwarded) {
      prev_fwd[i] = last_fwd;
      const double start1 =
          last_fwd >= 0
              ? std::max(f0[i], f1[static_cast<std::size_t>(last_fwd)])
              : f0[i];
      f1[i] = start1 + p.decode_b1 + p.handle_b1;
      last_fwd = static_cast<long>(i);
    }
  }

  // Walk the chain of waits back from the first delivery.
  enum { kB1, kB0, kPub } stage = kB1;
  std::size_t i = first;
  for (;;) {
    const Chain::PathTimes& p = t.paths[i];
    if (stage == kB1) {
      cp.decode += p.decode_b1;
      cp.handle_b1 += p.handle_b1;
      const long prev = prev_fwd[i];
      if (prev >= 0 && f1[static_cast<std::size_t>(prev)] > f0[i]) {
        i = static_cast<std::size_t>(prev);
      } else {
        stage = kB0;
      }
    } else if (stage == kB0) {
      cp.decode += p.decode_b0;
      cp.handle_b0 += p.handle_b0;
      if (i > 0 && f0[i - 1] > ready[i]) {
        --i;
      } else {
        stage = kPub;
      }
    } else {
      cp.extract = t.extract;
      for (std::size_t m = 0; m <= i; ++m) cp.encode += t.paths[m].encode;
      break;
    }
  }
  return cp;
}

void add_layer_metrics(Result& r, const Tracer& tracer, const Chain& chain,
                       const ReplayCounts& c, const LiveFigures& live) {
  const double docs = static_cast<double>(c.docs);

  r.add("xml.extract_us_per_doc", "us", mean_us(tracer, "xml.extract"));
  r.add("wire.encode_ns_per_frame", "ns",
        mean(self_ns(tracer, "wire.encode")));
  std::vector<double> decodes = self_ns(tracer, "wire.decode.b0");
  for (const char* name : {"wire.decode.b1", "wire.decode.sub"}) {
    std::vector<double> more = self_ns(tracer, name);
    decodes.insert(decodes.end(), more.begin(), more.end());
  }
  r.add("wire.decode_ns_per_frame", "ns", mean(decodes));
  r.add("wire.frames_per_doc", "count",
        ratio(static_cast<double>(c.link_frames), docs));
  r.add("wire.bytes_per_doc", "B",
        ratio(static_cast<double>(c.link_bytes), docs));

  const double handle_b1 = mean_us(tracer, "router.handle.b1");
  const double match_b1 = mean_us(tracer, "probe.index.match.b1");
  r.add("router.handle_us_per_path.b0", "us",
        mean_us(tracer, "router.handle.b0"));
  r.add("router.handle_us_per_path.b1", "us", handle_b1);
  r.add("index.match_us_per_path.b0", "us",
        mean_us(tracer, "probe.index.match.b0"));
  r.add("index.match_us_per_path.b1", "us", match_b1);
  r.add("index.comparisons_per_path.b1", "count",
        ratio(static_cast<double>(chain.match_probe_comparisons()),
              static_cast<double>(chain.match_probes())));
  r.add("router.forward_us_per_path.b1", "us", handle_b1 - match_b1);
  r.add("router.deliveries_per_doc", "count",
        ratio(static_cast<double>(c.deliveries), docs));
  r.add("router.suppressed_per_doc", "count",
        ratio(static_cast<double>(c.suppressed), docs));
  double handle_ns = 0;
  for (const char* name : {"router.handle.b0", "router.handle.b1"}) {
    for (double ns : self_ns(tracer, name)) handle_ns += ns;
  }
  r.add("router.publish_us_per_doc", "us", ratio(handle_ns / 1e3, docs));

  r.add("transport.frames_in.b0", "count", live.frames_in_b0);
  r.add("transport.frames_in.b1", "count", live.frames_in_b1);
  r.add("transport.backpressure_engagements", "count", live.backpressure);
  r.add("transport.residual_us", "us", percentile(live.residual_us, 0.5));
  r.add("transport.residual_p99_us", "us", percentile(live.residual_us, 0.99));
  r.add("gen.lag_p99_us", "us", percentile(live.lag_us, 0.99));

  const std::vector<double> inserts = self_ns(tracer, "probe.index.insert");
  const double insert_us = mean(inserts) / 1e3;
  const double overlap_us = mean_us(tracer, "probe.adv.overlap");
  r.add("wire.decode_ns_per_ctl", "ns",
        mean(self_ns(tracer, "wire.decode.ctl")));
  r.add("adv.overlap_us_per_sub", "us", overlap_us);
  r.add("index.insert_us_p50", "us", percentile(inserts, 0.5) / 1e3);
  r.add("index.insert_us_p99", "us", percentile(inserts, 0.99) / 1e3);
  r.add("index.comparisons_per_insert", "count",
        ratio(static_cast<double>(chain.insert_comparisons()),
              static_cast<double>(inserts.size())));
  r.add("index.cover_cache_hit_ratio", "ratio",
        ratio(static_cast<double>(chain.insert_cache_hits()),
              static_cast<double>(chain.insert_comparisons())));
  r.add("index.remove_us_p50", "us",
        percentile_us(tracer, "probe.index.remove", 0.5));
  r.add("router.subscribe_self_us", "us",
        mean_us(tracer, "router.handle.sub") - insert_us - overlap_us);
  r.add("router.forwards_per_sub", "count",
        ratio(static_cast<double>(c.subscribe_forwards),
              static_cast<double>(c.subscribes)));
  r.add("router.forwards_per_unsub", "count",
        ratio(static_cast<double>(c.unsubscribe_forwards),
              static_cast<double>(c.unsubscribes)));
  r.add("router.table_size.b0", "count", static_cast<double>(c.table_size_b0));
  r.add("trace.overhead_pct", "%",
        100.0 * ratio(c.traced_doc_ns - c.untraced_doc_ns, c.untraced_doc_ns));
}

void print_breakdown(const std::vector<CriticalPath>& paths,
                     const std::vector<double>& notify_us,
                     const std::vector<double>& residual_us) {
  CriticalPath sum;
  for (const CriticalPath& p : paths) {
    sum.extract += p.extract;
    sum.encode += p.encode;
    sum.decode += p.decode;
    sum.handle_b0 += p.handle_b0;
    sum.handle_b1 += p.handle_b1;
  }
  const double n = static_cast<double>(paths.empty() ? 1 : paths.size());
  std::printf(
      "critical path to the first notification, mean over %zu notified "
      "documents (us):\n",
      paths.size());
  std::printf("  %-28s %10.2f\n", "xml.extract", sum.extract / n / 1e3);
  std::printf("  %-28s %10.2f\n", "wire.encode", sum.encode / n / 1e3);
  std::printf("  %-28s %10.2f\n", "wire.decode", sum.decode / n / 1e3);
  std::printf("  %-28s %10.2f\n", "router.handle.b0", sum.handle_b0 / n / 1e3);
  std::printf("  %-28s %10.2f\n", "router.handle.b1", sum.handle_b1 / n / 1e3);
  std::printf("  %-28s %10.2f\n", "transport.residual",
              mean(residual_us));
  std::printf("  %-28s %10.2f   (notify_p50_us %.2f, transport.residual_us "
              "p50 %.2f)\n",
              "= notify mean", mean(notify_us), percentile(notify_us, 0.5),
              percentile(residual_us, 0.5));
}

}  // namespace perfbench
