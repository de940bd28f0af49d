// In-memory span tracer for the traced replay.
//
// Spans are opened and closed by the benchmark around its calls into
// each layer's public functions (nothing inside the library is
// instrumented). The replay is serial, so spans nest strictly: a span's
// self time is its duration minus its children's, and its self
// allocations are the heap allocations counted while it was the
// innermost open span. Allocations are counted by the benchmark
// binary's own global operator new (alloc_count.cpp), and only while
// counting is switched on.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench::trace {

enum Stage : int {
  kDecode,
  kCalibrate,
  kCovariance,
  kMusic,
  kWeighting,
  kSymmetry,
  kBlur,
  kSuppress,
  kLocalize,
  kTrack,
  kPublish,
  kQuery,
  kStageCount
};

/// Metric prefix of a stage, e.g. "aoa.blur".
const char* stage_name(int stage);

/// Heap allocations made through operator new while counting is on.
std::uint64_t allocations();
void set_counting(bool on);

struct SpanRecord {
  std::uint32_t job = 0;
  int stage = 0;
  int parent = -1;  // index into spans(), -1 for a top-level span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;
  std::uint64_t allocs_start = 0;
  std::uint64_t allocs = 0;        // inclusive
  std::uint64_t child_allocs = 0;
};

struct StageTotals {
  std::int64_t self_ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t self_allocs = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t reserve_spans);

  void set_job(std::uint32_t job) { job_ = job; }
  void begin(int stage);
  void end();

  const std::array<StageTotals, kStageCount>& totals() const {
    return totals_;
  }
  std::int64_t total_self_ns() const;
  /// One JSON object per line: job, stage, parent, start/end (ns from
  /// the first span), self time and self allocations.
  void write_jsonl(std::FILE* f) const;

 private:
  std::uint32_t job_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  std::array<StageTotals, kStageCount> totals_{};
};

/// Scoped span; a null tracer records nothing (the untraced replay
/// runs the same code).
class Span {
 public:
  Span(Tracer* t, int stage) : t_(t) {
    if (t_) t_->begin(stage);
  }
  ~Span() {
    if (t_) t_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

}  // namespace perfbench::trace
