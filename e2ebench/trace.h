// In-memory span recorder for the benchmark's traced replay.
//
// A span is one call into a module's public function, named
// "<module>.<what>" (store.snapshot_load, core.refine, ...). Spans nest:
// each records the span that was open when it started, and every span of
// one operation carries that operation's id. Sub-phases that the program
// reports in a returned struct (AlignPhaseTimings, StreamBatchResult) are
// added as synthesized children of the call that returned them.
//
// Nothing is written while the replay runs; the recorder is dumped once
// at the end. With recording disabled a Span reads no clock and stores
// nothing, which is how the replay measures its own overhead.

#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

struct SpanRecord {
  uint32_t op = 0;      ///< operation id (shared by all spans of one op)
  int32_t parent = -1;  ///< index of the enclosing span, -1 for top level
  std::string name;
  double start_us = 0;  ///< since the recorder's epoch
  double dur_us = 0;
};

struct CounterRecord {
  uint32_t op = 0;
  std::string name;
  double value = 0;
};

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  /// Starts a new operation; later spans and counters belong to it.
  void BeginOp(uint32_t op) {
    op_ = op;
    open_ = -1;
  }

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  int32_t Open(std::string name) {
    spans_.push_back({op_, open_, std::move(name), NowUs(), 0});
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return open_;
  }
  void Close(int32_t index) {
    SpanRecord& s = spans_[index];
    s.dur_us = NowUs() - s.start_us;
    open_ = s.parent;
  }
  void Rename(int32_t index, std::string name) {
    spans_[index].name = std::move(name);
  }

  /// A child of span `parent` whose duration the program reported itself;
  /// children are laid out back to back from the parent's start.
  void AddReported(int32_t parent, std::string name, double ms) {
    if (!enabled_ || parent < 0) return;
    double start = spans_[parent].start_us;
    for (size_t i = parent + 1; i < spans_.size(); ++i) {
      if (spans_[i].parent == parent) {
        start = spans_[i].start_us + spans_[i].dur_us;
      }
    }
    spans_.push_back({op_, parent, std::move(name), start, ms * 1e3});
  }

  void Count(std::string name, double value) {
    if (enabled_) counters_.push_back({op_, std::move(name), value});
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<CounterRecord>& counters() const { return counters_; }

 private:
  using Clock = std::chrono::steady_clock;
  Tracer() : epoch_(Clock::now()) {}

  Clock::time_point epoch_;
  bool enabled_ = false;
  uint32_t op_ = 0;
  int32_t open_ = -1;
  std::vector<SpanRecord> spans_;
  std::vector<CounterRecord> counters_;
};

/// Scoped span; a no-op while recording is disabled.
class Span {
 public:
  explicit Span(const char* name) {
    Tracer& t = Tracer::Get();
    if (t.enabled()) index_ = t.Open(name);
  }
  ~Span() {
    if (index_ >= 0) Tracer::Get().Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Renames the span once its outcome is known (a cache acquire that
  /// turned out to be a miss is a load).
  void Rename(const char* name) {
    if (index_ >= 0) Tracer::Get().Rename(index_, name);
  }
  void AddReported(const char* name, double ms) {
    Tracer::Get().AddReported(index_, name, ms);
  }

 private:
  int32_t index_ = -1;
};

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
