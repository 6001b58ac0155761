#include "perfbench/workloads.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "src/common/macros.h"

namespace flexpipe::perfbench {

namespace {

constexpr TimeNs kSlo = 10 * kSecond;
constexpr TimeNs kWarmup = 90 * kSecond;  // initial fleet loads before traffic
constexpr TimeNs kDrainGrace = 60 * kSecond;

// 128 + 2*192 + 4*128 = 1024 GPUs on 448 servers in 32 racks.
ClusterConfig StressCluster() {
  ClusterConfig c;
  c.servers_1gpu = 128;
  c.servers_2gpu = 192;
  c.servers_4gpu = 128;
  c.cpu_only_servers = 8;
  c.racks = 32;
  return c;
}

// Splitwise-like lengths: prompt median 512, output median 24.
WorkloadGenerator::Config SplitwiseLengths(int model_index, const ModelSpec& model) {
  WorkloadGenerator::Config config;
  config.model_index = model_index;
  config.slo = kSlo;
  config.lengths.prompt_median = 512;
  config.lengths.prompt_sigma = 0.9;
  config.lengths.prompt_max = model.context_window;
  config.lengths.output_median = 24;
  config.lengths.output_sigma = 0.7;
  config.lengths.output_max = 256;
  return config;
}

// Prefill-heavy lengths: long prompts, a handful of output tokens.
WorkloadGenerator::Config PrefillHeavyLengths(int model_index, const ModelSpec& model) {
  WorkloadGenerator::Config config;
  config.model_index = model_index;
  config.slo = kSlo;
  config.lengths.prompt_median = 1536;
  config.lengths.prompt_sigma = 0.5;
  config.lengths.prompt_max = model.context_window;
  config.lengths.output_median = 4;
  config.lengths.output_sigma = 0.5;
  config.lengths.output_max = 16;
  return config;
}

// Gamma renewal arrivals whose rate is multiplied by `burst_factor` during
// [offset + k*period, offset + k*period + burst_len). Gaps are drawn at the base rate
// in operational time and mapped to real time through the inverse of the cumulative
// rate, so the process keeps the base CV inside and outside bursts.
class PeriodicBurstArrivals : public ArrivalProcess {
 public:
  PeriodicBurstArrivals(double base_rate, double cv, double burst_factor, double period_s,
                        double burst_len_s, double offset_s)
      : base_(base_rate, cv),
        base_rate_(base_rate),
        factor_(burst_factor),
        period_s_(period_s),
        burst_s_(burst_len_s),
        offset_s_(offset_s) {
    FLEXPIPE_CHECK(burst_factor >= 1.0 && burst_len_s > 0.0 && offset_s >= 0.0 &&
                   offset_s + burst_len_s <= period_s);
  }

  TimeNs NextGap(Rng& rng) override {
    operational_s_ += ToSeconds(base_.NextGap(rng));
    const TimeNs next = std::max(now_ + 1, FromSeconds(RealTime(operational_s_)));
    const TimeNs gap = next - now_;
    now_ = next;
    return gap;
  }

  double MeanRate() const override {
    return base_rate_ * (period_s_ + (factor_ - 1.0) * burst_s_) / period_s_;
  }

 private:
  // Inverse of the cumulative rate (in base-rate seconds) over one period layout:
  // [0, offset) at 1x, [offset, offset + burst) at factor x, then 1x to the period end.
  double RealTime(double operational_s) const {
    const double per_period = period_s_ + (factor_ - 1.0) * burst_s_;
    const double k = std::floor(operational_s / per_period);
    const double r = operational_s - k * per_period;
    double local;
    if (r < offset_s_) {
      local = r;
    } else if (r < offset_s_ + factor_ * burst_s_) {
      local = offset_s_ + (r - offset_s_) / factor_;
    } else {
      local = r - (factor_ - 1.0) * burst_s_;
    }
    return k * period_s_ + local;
  }

  GammaArrivals base_;
  double base_rate_;
  double factor_;
  double period_s_;
  double burst_s_;
  double offset_s_;
  double operational_s_ = 0.0;
  TimeNs now_ = 0;
};

// Picks the failure domain holding the most serving-reserved bytes (id tie-break),
// evaluated against the live placement just before a fault lands.
template <typename DomainOf>
int32_t BusiestDomain(const Cluster& cluster, int domain_count, DomainOf domain_of) {
  std::vector<Bytes> reserved(static_cast<size_t>(domain_count), 0);
  for (GpuId g = 0; g < cluster.gpu_count(); ++g) {
    reserved[static_cast<size_t>(domain_of(cluster.ServerOf(g)))] +=
        cluster.gpu(g).reserved_memory();
  }
  int32_t best = 0;
  for (int32_t d = 1; d < domain_count; ++d) {
    if (reserved[static_cast<size_t>(d)] > reserved[static_cast<size_t>(best)]) {
      best = d;
    }
  }
  return best;
}

// fig17's mitigating health monitor.
HealthConfig MitigatingHealth() {
  HealthConfig h;
  h.enabled = true;
  h.ewma_alpha = 0.5;
  h.straggler_ratio = 1.25;
  h.hysteresis_windows = 3;
  h.quarantine_strikes = 1;
  h.reprobe_interval = 10 * kSecond;
  h.readmit_probes = 2;
  h.mitigate = true;
  h.max_quarantine_fraction = 0.25;
  return h;
}

struct Shape {
  std::vector<double> qps;
  TimeNs traffic = 0;
  TimeNs drain_grace = kDrainGrace;
};

Shape ShapeOf(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kSteadyDecode:
      return {{100.0, 100.0, 60.0, 40.0}, 5 * kMinute};
    case WorkloadKind::kBurstPrefill:
      return {{60.0, 60.0, 30.0, 20.0}, 8 * kMinute};  // three burst periods
    case WorkloadKind::kFaultStorm:
      // Long enough a drain for the throttled, partly dead fleet to finish its queue.
      return {{200.0, 200.0, 130.0, 90.0}, 20 * kMinute, 300 * kSecond};
  }
  return {};
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadKind* kind) {
  if (name == "steady_decode") {
    *kind = WorkloadKind::kSteadyDecode;
  } else if (name == "burst_prefill") {
    *kind = WorkloadKind::kBurstPrefill;
  } else if (name == "fault_storm") {
    *kind = WorkloadKind::kFaultStorm;
  } else {
    return false;
  }
  return true;
}

Universe::Universe(WorkloadKind kind, uint64_t seed, TimeNs traffic_override, bool traced) {
  Shape shape = ShapeOf(kind);
  if (traffic_override > 0) {
    shape.traffic = traffic_override;
  }
  const std::vector<ModelSpec> models = EvaluationModels();

  ExperimentEnvConfig env_config;
  env_config.models = models;
  env_config.seed = seed;
  env_config.cluster = StressCluster();
  if (kind == WorkloadKind::kBurstPrefill) {
    env_config.fragmentation = ProfileClusterC2();
    env_config.churn_interval = 10 * kSecond;
    env_config.churn_fraction = 0.20;
  }
  env_ = std::make_unique<ExperimentEnv>(env_config);

  std::vector<FlexPipeSystem::ModelDeployment> deployments;
  for (size_t i = 0; i < models.size(); ++i) {
    FlexPipeSystem::ModelDeployment d;
    d.ladder = &env_->ladder(static_cast<int>(i));
    d.config.model_id = static_cast<int>(i);
    d.config.initial_stages = d.ladder->coarsest();
    d.config.target_peak_rps = shape.qps[i];
    d.config.default_slo = kSlo;
    d.config.scaling.reclaim_idle = 45 * kSecond;
    if (kind == WorkloadKind::kFaultStorm) {
      d.config.fault_recovery = FaultRecoveryPolicy::kReform;
      d.config.placement.domain_spread_weight = 2.0;  // fig16's spread arm
      d.config.enable_brownout = true;
      d.config.health = MitigatingHealth();
    }
    deployments.push_back(d);
  }
  if (traced) {
    auto system = std::make_unique<TracedFlexPipe>(env_->Context(), std::move(deployments));
    traced_ = system.get();
    system_ = std::move(system);
  } else {
    system_ = std::make_unique<FlexPipeSystem>(env_->Context(), std::move(deployments));
  }
  // Histograms only, as stress_endurance does: no per-completion series.
  system_->metrics().SetKeepCompletionSeries(false);

  // Fault notifications are a handful per run, so they are timed in every mode.
  injector_ = std::make_unique<FaultInjector>(&env_->sim(), &env_->cluster());
  injector_->AddGpuLossListener(
      [sys = system_.get(), timer = &fault_timer_](const std::vector<GpuId>& lost) {
        ScopedSpan span(timer);
        sys->OnGpusLost(lost);
      });
  if (kind == WorkloadKind::kFaultStorm) {
    ArmFaults(seed);
  }

  std::vector<std::unique_ptr<RequestStream>> parts;
  for (size_t i = 0; i < models.size(); ++i) {
    const int index = static_cast<int>(i);
    const Rng model_rng(Rng(seed).Child(models[i].name).seed());
    if (kind == WorkloadKind::kBurstPrefill) {
      // Staggered 4x bursts: 40 s of every 160 s, model i offset by 40 s * i, so
      // exactly one model is bursting at any moment.
      parts.push_back(std::make_unique<StreamingWorkloadSource>(
          PrefillHeavyLengths(index, models[i]),
          std::make_unique<PeriodicBurstArrivals>(shape.qps[i], /*cv=*/2.0,
                                                  /*burst_factor=*/4.0, /*period_s=*/160.0,
                                                  /*burst_len_s=*/40.0,
                                                  /*offset_s=*/40.0 * static_cast<double>(i)),
          model_rng, model_rng.Child("lengths"), shape.traffic));
    } else {
      parts.push_back(std::make_unique<StreamingWorkloadSource>(StreamingWorkloadSource::WithCv(
          SplitwiseLengths(index, models[i]), shape.qps[i], /*cv=*/2.0, shape.traffic,
          model_rng)));
    }
  }
  stream_ = std::make_unique<MergedRequestStream>(std::move(parts));
  if (traced) {
    timed_stream_ = std::make_unique<TimedStream>(stream_.get());
  }
  options_ = RunOptions{.drain_grace = shape.drain_grace, .warmup = kWarmup};
}

void Universe::ArmFaults(uint64_t seed) {
  // Three correlated faults, five minutes apart, each aimed at the busiest domain of
  // the placement it lands on: a power-feed trip that heals rack by rack, a permanent
  // thermal cascade, then a 0.12x thermal-throttle wave that outlives the traffic.
  // Closer spacing overlaps the recoveries and tips the fleet into queue collapse.
  const TimeNs outage = kWarmup + 4 * kMinute;
  const TimeNs cascade = kWarmup + 9 * kMinute;
  const TimeNs throttle = kWarmup + 14 * kMinute;
  ExperimentEnv* env = env_.get();
  FaultInjector* injector = injector_.get();
  env->sim().ScheduleAt(outage - kMillisecond, [env, injector, outage] {
    const Cluster& cluster = env->cluster();
    injector->Arm(FaultPlan::PowerDomainOutage(
        outage,
        BusiestDomain(cluster, cluster.power_domain_count(),
                      [&cluster](ServerId s) { return cluster.PowerDomainOf(s); }),
        cluster, /*heal_after=*/25 * kSecond, /*heal_stagger=*/5 * kSecond));
  });
  env->sim().ScheduleAt(cascade - kMillisecond, [env, injector, cascade, seed] {
    const Cluster& cluster = env->cluster();
    injector->Arm(FaultPlan::ThermalCascade(
        cascade,
        BusiestDomain(cluster, cluster.thermal_zone_count(),
                      [&cluster](ServerId s) { return cluster.ThermalZoneOf(s); }),
        cluster, /*spread_factor=*/0.8, /*spread_interval=*/2 * kSecond,
        /*quench_after=*/10 * kSecond, seed));
  });
  env->sim().ScheduleAt(throttle - kMillisecond, [env, injector, throttle, seed] {
    const Cluster& cluster = env->cluster();
    injector->Arm(FaultPlan::ThrottleWave(
        throttle,
        BusiestDomain(cluster, cluster.thermal_zone_count(),
                      [&cluster](ServerId s) { return cluster.ThermalZoneOf(s); }),
        cluster, /*multiplier=*/0.12, /*spread_factor=*/0.9, /*spread_interval=*/2 * kSecond,
        /*quench_after=*/16 * kSecond, /*recover_after=*/400 * kSecond, seed));
  });
}

RunResult Universe::Run() {
  RequestStream& stream = timed_stream_ != nullptr
                              ? static_cast<RequestStream&>(*timed_stream_)
                              : *stream_;
  WorkloadHarness harness(*env_, {system_.get()});
  const auto start = std::chrono::steady_clock::now();
  const StreamingRunReport report = harness.RunPhase(stream, options_);
  harness.Finish();
  RunResult result;
  result.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  result.submitted = harness.total_submitted();
  result.completed = system_->metrics().completed();
  result.shed = system_->failure_stats().requests_shed;
  result.live_after_drain = static_cast<int64_t>(harness.pool().live());
  result.ran_until = report.ran_until;
  return result;
}

}  // namespace flexpipe::perfbench
