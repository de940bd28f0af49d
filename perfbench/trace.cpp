#include "trace.h"

#include <atomic>
#include <chrono>

namespace perfbench::trace {

// Shared with alloc_count.cpp, which bumps the counter from the global
// operator new.
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Suspends allocation counting for the tracer's own bookkeeping.
class CountingPause {
 public:
  CountingPause() : was_(g_counting.exchange(false)) {}
  ~CountingPause() { g_counting.store(was_); }
  CountingPause(const CountingPause&) = delete;
  CountingPause& operator=(const CountingPause&) = delete;

 private:
  bool was_;
};

}  // namespace

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

void set_counting(bool on) { g_counting.store(on); }

const char* stage_name(int stage) {
  static const char* const names[kStageCount] = {
      "phy.decode",     "phy.calibrate", "aoa.covariance",
      "aoa.music",      "aoa.weighting", "aoa.symmetry",
      "aoa.blur",       "core.suppress", "core.localize",
      "core.track",     "delivery.publish", "delivery.query"};
  return stage >= 0 && stage < kStageCount ? names[stage] : "unknown";
}

Tracer::Tracer(std::size_t reserve_spans) {
  spans_.reserve(reserve_spans);
  open_.reserve(64);
}

void Tracer::begin(int stage) {
  {
    CountingPause pause;
    SpanRecord s;
    s.job = job_;
    s.stage = stage;
    s.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(s);
    open_.push_back(int(spans_.size() - 1));
  }
  SpanRecord& s = spans_.back();
  s.allocs_start = allocations();
  s.start_ns = now_ns();
}

void Tracer::end() {
  const std::int64_t t = now_ns();
  const std::uint64_t a = allocations();
  SpanRecord& s = spans_[std::size_t(open_.back())];
  open_.pop_back();
  s.end_ns = t;
  s.allocs = a - s.allocs_start;
  const std::int64_t dur = s.end_ns - s.start_ns;
  StageTotals& tot = totals_[std::size_t(s.stage)];
  tot.self_ns += dur - s.child_ns;
  tot.self_allocs += s.allocs - s.child_allocs;
  ++tot.calls;
  if (s.parent >= 0) {
    SpanRecord& p = spans_[std::size_t(s.parent)];
    p.child_ns += dur;
    p.child_allocs += s.allocs;
  }
}

std::int64_t Tracer::total_self_ns() const {
  std::int64_t sum = 0;
  for (const auto& t : totals_) sum += t.self_ns;
  return sum;
}

void Tracer::write_jsonl(std::FILE* f) const {
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const auto& s : spans_)
    std::fprintf(f,
                 "{\"job\": %u, \"stage\": \"%s\", \"parent\": %d, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"self_ns\": %lld, "
                 "\"self_allocs\": %llu}\n",
                 s.job, stage_name(s.stage), s.parent,
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0),
                 static_cast<long long>(s.end_ns - s.start_ns - s.child_ns),
                 static_cast<unsigned long long>(s.allocs - s.child_allocs));
}

}  // namespace perfbench::trace
