#include "service/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace arraytrack::service {

StreamingHistogram::StreamingHistogram(double lo, double hi,
                                       std::size_t buckets)
    : lo_(lo),
      hi_(hi),
      log_lo_(std::log(lo)),
      log_step_((std::log(hi) - std::log(lo)) / double(buckets)),
      buckets_(buckets),
      counts_(buckets + 2) {}

std::size_t StreamingHistogram::bucket_of(double v) const {
  if (!(v >= lo_)) return 0;                      // underflow (and NaN)
  if (v >= hi_) return buckets_ + 1;              // overflow
  const auto b = std::size_t((std::log(v) - log_lo_) / log_step_);
  return 1 + std::min(b, buckets_ - 1);
}

double StreamingHistogram::bucket_edge(std::size_t i) const {
  // Lower edge of interior bucket i (1-based interior indexing).
  return std::exp(log_lo_ + double(i - 1) * log_step_);
}

void StreamingHistogram::record(double v) {
  if (std::isnan(v)) return;
  if (v < 0.0) v = 0.0;
  counts_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  sum_micro_.fetch_add(std::uint64_t(std::llround(v * 1e6)),
                       std::memory_order_relaxed);
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  std::uint64_t cur = max_bits_.load(std::memory_order_relaxed);
  while (bits > cur && !max_bits_.compare_exchange_weak(
                           cur, bits, std::memory_order_relaxed)) {
  }
}

std::uint64_t StreamingHistogram::count() const { return total_.load(); }

double StreamingHistogram::mean() const {
  const std::uint64_t n = total_.load();
  return n ? double(sum_micro_.load()) * 1e-6 / double(n) : 0.0;
}

double StreamingHistogram::max_seen() const {
  return std::bit_cast<double>(max_bits_.load());
}

double StreamingHistogram::percentile(double p) const {
  const std::uint64_t n = total_.load();
  if (n == 0) return 0.0;
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * double(n);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t c = counts_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    if (double(seen + c) >= rank) {
      if (i == 0) return lo_;
      if (i == buckets_ + 1) return std::min(max_seen(), hi_ * 2.0);
      // Log-linear interpolation inside the bucket.
      const double frac =
          std::clamp((rank - double(seen)) / double(c), 0.0, 1.0);
      const double e0 = std::log(bucket_edge(i));
      return std::exp(e0 + frac * log_step_);
    }
    seen += c;
  }
  return max_seen();
}

void StreamingHistogram::reset() {
  for (auto& c : counts_) c.store(0);
  total_.store(0);
  sum_micro_.store(0);
  max_bits_.store(0);
}

namespace {

void json_num(std::string& out, const char* key, double v, bool& first) {
  char buf[96];
  if (!(v == v && v - v == 0.0)) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": null", first ? "" : ", ", key);
  } else {
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.6g", first ? "" : ", ", key,
                  v);
  }
  out += buf;
  first = false;
}

}  // namespace

std::string StreamingHistogram::to_json() const {
  std::string out = "{";
  bool first = true;
  json_num(out, "count", double(count()), first);
  json_num(out, "mean", mean(), first);
  json_num(out, "p50", percentile(50), first);
  json_num(out, "p90", percentile(90), first);
  json_num(out, "p99", percentile(99), first);
  json_num(out, "max", max_seen(), first);
  out += "}";
  return out;
}

ServiceStats::ServiceStats()
    : queue_depth(1.0, 1024.0, 24),
      queue_wait_ms(0.01, 60e3, 32),
      processing_ms(0.01, 60e3, 32),
      e2e_ms(0.1, 60e3, 32),
      batch_occupancy(1.0, 1024.0, 16) {}

std::string ServiceStats::to_json() const {
  std::string out = "{";
  bool first = true;
  auto counter = [&](const char* key, const std::atomic<std::uint64_t>& v) {
    json_num(out, key, double(v.load()), first);
  };
  counter("frames_in", frames_in);
  counter("wire_records_in", wire_records_in);
  counter("decode_errors", decode_errors);
  counter("jobs_enqueued", jobs_enqueued);
  counter("jobs_coalesced", jobs_coalesced);
  counter("wire_accepted", wire_accepted);
  counter("wire_version_rejected", wire_version_rejected);
  counter("wire_duplicates", wire_duplicates);
  counter("wire_replays", wire_replays);
  counter("wire_gaps", wire_gaps);
  counter("ring_dropped", ring_dropped);
  counter("shed_queue_full", shed_queue_full);
  counter("shed_deadline", shed_deadline);
  counter("fixes_emitted", fixes_emitted);
  counter("locate_failures", locate_failures);
  counter("tracker_rejects", tracker_rejects);
  counter("elastic_grow", elastic_grow);
  counter("elastic_shrink", elastic_shrink);
  counter("workers_now", workers_now);
  counter("batch_max", batch_max);
  counter("evd_full", subspace.evd_full);
  counter("evd_tracked", subspace.evd_tracked);
  counter("evd_reseed", subspace.evd_reseed);
  out += ", \"queue_depth\": " + queue_depth.to_json();
  out += ", \"queue_wait_ms\": " + queue_wait_ms.to_json();
  out += ", \"processing_ms\": " + processing_ms.to_json();
  out += ", \"e2e_ms\": " + e2e_ms.to_json();
  out += ", \"batch_occupancy\": " + batch_occupancy.to_json();
  out += "}";
  return out;
}

}  // namespace arraytrack::service
