// The three benchmark workloads, each one FlexPipe universe on one thread.
//
// A Universe owns everything one simulated run needs: the experiment environment
// (cluster, fragmentation, ladders), the multi-model FlexPipe deployment, a fault
// injector (armed only by fault_storm) and the seeded request stream. Building it is
// the benchmark's set-up; Run() drives it through one WorkloadHarness phase and drains.
//
// The shapes are pinned here rather than borrowed from bench/ so that the benchmark's
// inputs only change when this directory changes. A steady_decode universe has
// bench/stress_endurance's cluster, rates, lengths, SLO, warmup and drain; stretched to
// that bench's hour of traffic at seed 42 it reproduces its request and event counts.
#ifndef FLEXPIPE_PERFBENCH_WORKLOADS_H_
#define FLEXPIPE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/probes.h"
#include "src/core/experiment.h"
#include "src/core/flexpipe_system.h"
#include "src/sim/faults.h"

namespace flexpipe::perfbench {

enum class WorkloadKind { kSteadyDecode, kBurstPrefill, kFaultStorm };

// Parses a workload name; false when the name is unknown.
bool ParseWorkload(const std::string& name, WorkloadKind* kind);

// What one drained run produced. Every field is simulated output except wall_s.
struct RunResult {
  double wall_s = 0.0;  // RunPhase + Finish, steady clock
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t shed = 0;
  int64_t live_after_drain = 0;
  TimeNs ran_until = 0;
};

class Universe {
 public:
  // Builds env, deployment, injector and stream. `traffic_override` > 0 replaces the
  // workload's traffic span. With `traced` the system and the stream are wrapped by the
  // probes in probes.h; otherwise the plain FlexPipeSystem runs with nothing in its
  // path. The fault listener is timed either way.
  Universe(WorkloadKind kind, uint64_t seed, TimeNs traffic_override, bool traced);
  Universe(const Universe&) = delete;
  Universe& operator=(const Universe&) = delete;

  // Runs the single phase to its horizon and finishes the system.
  RunResult Run();

  FlexPipeSystem& system() { return *system_; }
  // Both null unless traced.
  TracedFlexPipe* traced_system() { return traced_; }
  const TimedStream* timed_stream() const { return timed_stream_.get(); }
  const LayerTimer& fault_timer() const { return fault_timer_; }
  const FaultInjector& injector() const { return *injector_; }
  ExperimentEnv& env() { return *env_; }

 private:
  void ArmFaults(uint64_t seed);

  RunOptions options_;
  std::unique_ptr<ExperimentEnv> env_;
  std::unique_ptr<FlexPipeSystem> system_;
  TracedFlexPipe* traced_ = nullptr;
  std::unique_ptr<FaultInjector> injector_;
  LayerTimer fault_timer_;
  std::unique_ptr<RequestStream> stream_;
  std::unique_ptr<TimedStream> timed_stream_;
};

}  // namespace flexpipe::perfbench

#endif  // FLEXPIPE_PERFBENCH_WORKLOADS_H_
