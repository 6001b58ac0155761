// Bench-side layer probes for the traced run.
//
// Each probe times calls into one layer's public entry point from outside the program:
// a RequestStream decorator around Next (workload generation), a FlexPipeSystem
// subclass around OnArrival (CvMonitor, brownout, Router::Submit and the first admit),
// and a LayerTimer the fault listener wraps around OnGpusLost. None of them schedules
// an event or draws a random number, so a traced run is bit-identical to an untraced
// one; the benchmark checks that through the output digest on every traced run.
// The spans never nest, so each probe's total is that layer's self time.
#ifndef FLEXPIPE_PERFBENCH_PROBES_H_
#define FLEXPIPE_PERFBENCH_PROBES_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "src/core/flexpipe_system.h"
#include "src/trace/streaming.h"

namespace flexpipe::perfbench {

// Accumulated wall time and call count of one layer boundary.
struct LayerTimer {
  int64_t calls = 0;
  std::chrono::steady_clock::duration total{};

  double seconds() const { return std::chrono::duration<double>(total).count(); }
};

// Adds the lifetime of the span to `timer`.
class ScopedSpan {
 public:
  explicit ScopedSpan(LayerTimer* timer)
      : timer_(timer), start_(std::chrono::steady_clock::now()) {}
  ~ScopedSpan() {
    timer_->total += std::chrono::steady_clock::now() - start_;
    ++timer_->calls;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  LayerTimer* timer_;
  std::chrono::steady_clock::time_point start_;
};

// Times every Next() of the wrapped stream; `requests` counts the ones that produced a
// request (the final exhausting call is timed but not counted).
class TimedStream : public RequestStream {
 public:
  explicit TimedStream(RequestStream* inner) : inner_(inner) {}

  bool Next(RequestSpec* out) override {
    ScopedSpan span(&timer_);
    bool produced = inner_->Next(out);
    requests_ += produced ? 1 : 0;
    return produced;
  }
  TimeNs end_time() const override { return inner_->end_time(); }

  const LayerTimer& timer() const { return timer_; }
  int64_t requests() const { return requests_; }

 private:
  RequestStream* inner_;
  LayerTimer timer_;
  int64_t requests_ = 0;
};

// InstanceStats summed over every instance record, live and released.
struct InstanceTotals {
  int64_t waves = 0;
  int64_t tokens = 0;
  int64_t prefills = 0;
};

class TracedFlexPipe : public FlexPipeSystem {
 public:
  using FlexPipeSystem::FlexPipeSystem;

  void OnArrival(Request* request) override {
    ScopedSpan span(&arrival_timer_);
    FlexPipeSystem::OnArrival(request);
  }

  InstanceTotals SumInstanceStats() const {
    InstanceTotals totals;
    for (const InstanceRecord& record : records_) {
      const InstanceStats& stats = record.instance->stats();
      totals.waves += stats.iterations;
      totals.tokens += stats.tokens_generated;
      totals.prefills += stats.prefills_completed;
    }
    return totals;
  }

  const LayerTimer& arrival_timer() const { return arrival_timer_; }

 private:
  LayerTimer arrival_timer_;
};

}  // namespace flexpipe::perfbench

#endif  // FLEXPIPE_PERFBENCH_PROBES_H_
