// flexpipe_perfbench: runs one benchmark workload and prints one JSON result line.
//
//   flexpipe_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                      [--universes <k>] [--traffic-minutes <m>]
//
// One run simulates a fixed batch of k universes, one after another on this thread.
// Universe 0 uses --seed itself and the others use seeds derived from it, so the batch
// (and every simulated output) is a function of --seed alone. The batch is what makes
// a run steady: FlexPipe's controller reacts to CV=2 bursts differently from seed to
// seed (fleet size and events per request differ by tens of percent between two
// universes), and pooling many short universes averages that out where one long
// universe would not.
//
// Untraced (--trace 0): run the batch, then re-run its universes in order until
// --seconds have passed; every re-run must reproduce its universe's digest. Wall
// metrics divide the summed per-universe median wall time by the summed simulated
// time; simulated metrics pool the batch (merged histograms, summed counts).
//
// Traced (--trace 1): run each universe of the first half of the batch untraced and
// then traced, which takes about as long as one untraced batch. The traced one carries
// the layer probes of probes.h; its digest must equal the untraced one's, which shows
// the probes do not perturb the simulation.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/workloads.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/sim/auditor.h"

namespace flexpipe::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

// Set-up takes a few milliseconds, so it is also sampled on its own this many times.
constexpr int kSetupSamples = 15;

// Universes per run: enough that every pooled metric moves by less than a third of
// its bound between seeds. One batch takes 27-30 s on a 4-vCPU x86 container, 40 s for
// fault_storm, whose recoveries make its P95 the slowest metric to settle.
int DefaultUniverses(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kSteadyDecode:
      return 160;
    case WorkloadKind::kBurstPrefill:
      return 200;
    case WorkloadKind::kFaultStorm:
      return 24;
  }
  return 1;
}

std::vector<uint64_t> BatchSeeds(uint64_t seed, int universes) {
  std::vector<uint64_t> seeds = {seed};
  uint64_t state = seed;
  while (static_cast<int>(seeds.size()) < universes) {
    seeds.push_back(SplitMix64(state));
  }
  return seeds;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMiB() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

constexpr uint64_t kFnvBasis = 14695981039346656037ull;

uint64_t Fnv1a(uint64_t hash, uint64_t bits) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (bits >> (8 * byte)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

// -- Build comparability --------------------------------------------------------------

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE "OFF"
#endif

struct BuildInfo {
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string compiler;
  unsigned nproc = std::thread::hardware_concurrency();
  bool optimized = false;
  bool sanitizer = false;
  bool audit = kAuditBuild;  // periodic auditor events would change sim.events

  bool comparable() const {
    return build_type == "Release" && optimized && !sanitizer && !audit;
  }
};

BuildInfo DetectBuild() {
  BuildInfo info;
#if defined(__clang__)
  info.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  info.compiler = std::string("gcc ") + __VERSION__;
#else
  info.compiler = "unknown";
#endif
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  info.optimized = true;
#endif
  const std::string sanitize = PERFBENCH_SANITIZE;
  info.sanitizer = !(sanitize.empty() || sanitize == "OFF" || sanitize == "0" ||
                     sanitize == "FALSE" || sanitize == "NO");
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  info.sanitizer = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  info.sanitizer = true;
#endif
#endif
  return info;
}

// -- Simulated outputs ------------------------------------------------------------------

// FNV-1a over the bit patterns of one universe's simulated outputs. Event counts are
// left out on purpose: they measure the simulator, not the simulated system.
uint64_t Digest(Universe& universe, const RunResult& run) {
  FlexPipeSystem& sys = universe.system();
  const MetricsCollector& m = sys.metrics();
  const ServingSystemBase::FailureStats& f = sys.failure_stats();
  const LatencyBreakdown b = m.MeanBreakdown();
  const HealthMonitor* health = sys.health_monitor();
  const double values[] = {
      static_cast<double>(run.submitted), static_cast<double>(m.completed()),
      static_cast<double>(m.completed_within_slo()), static_cast<double>(f.requests_shed),
      static_cast<double>(f.instances_lost), static_cast<double>(f.requests_requeued),
      static_cast<double>(f.requests_restarted), static_cast<double>(f.requests_resumed),
      static_cast<double>(f.whole_pipeline_losses),
      static_cast<double>(sys.peak_reserved_gpus()), sys.GpuSecondsReserved(run.ran_until),
      static_cast<double>(run.ran_until), m.LatencyPercentileSec(50),
      m.LatencyPercentileSec(90), m.LatencyPercentileSec(99), m.LatencyPercentileSec(99.9),
      m.MeanLatencySec(), m.PrefillPercentileSec(50), m.PrefillPercentileSec(90),
      m.PrefillPercentileSec(99), m.MeanPrefillSec(), b.queue_s, b.exec_s, b.comm_s,
      b.total_s, static_cast<double>(sys.TotalBusyAll()),
      static_cast<double>(sys.TotalStallAll()), static_cast<double>(sys.cold_loads()),
      static_cast<double>(sys.warm_loads()), static_cast<double>(sys.refactor_count()),
      static_cast<double>(sys.total_refactor_pause()),
      static_cast<double>(sys.kv_migrated_bytes()),
      static_cast<double>(sys.kv_invalidated_tokens()),
      health != nullptr ? static_cast<double>(health->flags_raised()) : 0.0,
      health != nullptr ? static_cast<double>(health->quarantine_count()) : 0.0,
      health != nullptr ? static_cast<double>(health->readmissions()) : 0.0,
      static_cast<double>(sys.health_migrations()),
      static_cast<double>(sys.router().max_queue_length()),
  };
  uint64_t hash = kFnvBasis;
  for (double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    hash = Fnv1a(hash, bits);
  }
  return hash;
}

// What a user of the simulated system sees, pooled over the batch: percentiles of the
// merged histograms, ratios of summed counts, and the mean of per-universe peaks. The
// tail is P95, not P99: under fault_storm the slowest 2-5% of requests are the ones
// queued through a recovery, so a P99 lands inside that population and moves by ~20%
// from one batch to the next, while P95 stays within a few percent.
class ServingPool {
 public:
  void Add(Universe& universe, const RunResult& run) {
    FlexPipeSystem& sys = universe.system();
    const MetricsCollector& m = sys.metrics();
    ++universes_;
    submitted_ += run.submitted;
    completed_ += m.completed();
    shed_ += run.shed;
    within_slo_ += m.completed_within_slo();
    gpu_s_ += sys.GpuSecondsReserved(run.ran_until);
    peak_gpus_ += sys.peak_reserved_gpus();
    Merge(&latency_, m.latency_histogram());
    Merge(&prefill_, m.prefill_histogram());
  }

  void Report(Metrics* out) const {
    (*out)["sim_ttft_p50_s"] = Percentile(prefill_, 50);
    (*out)["sim_ttft_p95_s"] = Percentile(prefill_, 95);
    (*out)["sim_latency_p50_s"] = Percentile(latency_, 50);
    (*out)["sim_latency_p95_s"] = Percentile(latency_, 95);
    (*out)["sim_goodput_rate"] =
        Ratio(static_cast<double>(within_slo_), static_cast<double>(submitted_));
    (*out)["sim_gpu_s_per_request"] = Ratio(gpu_s_, static_cast<double>(completed_));
    (*out)["sim_peak_reserved_gpus"] =
        Ratio(static_cast<double>(peak_gpus_), static_cast<double>(universes_));
    (*out)["sim_completed_fraction"] =
        Ratio(static_cast<double>(completed_), static_cast<double>(submitted_));
  }

  int64_t submitted() const { return submitted_; }
  int64_t completed() const { return completed_; }
  int64_t shed() const { return shed_; }

 private:
  static double Percentile(const std::optional<Histogram>& h, double q) {
    return h.has_value() ? h->Percentile(q) : 0.0;
  }

  static void Merge(std::optional<Histogram>* into, const Histogram& h) {
    if (into->has_value()) {
      (*into)->Merge(h);
    } else {
      into->emplace(h);
    }
  }

  int64_t universes_ = 0;
  int64_t submitted_ = 0;
  int64_t completed_ = 0;
  int64_t shed_ = 0;
  int64_t within_slo_ = 0;
  double gpu_s_ = 0.0;
  int64_t peak_gpus_ = 0;
  std::optional<Histogram> latency_;
  std::optional<Histogram> prefill_;
};

// Per-layer counters of one traced universe. Every entry pools across the batch by
// summing, except the high-water marks named in IsHighWaterMark.
Metrics LayerCounters(Universe& universe, const RunResult& run) {
  TracedFlexPipe& sys = *universe.traced_system();
  const MetricsCollector& m = sys.metrics();
  const ServingSystemBase::FailureStats& f = sys.failure_stats();
  const LayerTimer& trace = universe.timed_stream()->timer();
  const LayerTimer& arrival = sys.arrival_timer();
  const LayerTimer& fault = universe.fault_timer();
  const FaultInjector& injector = universe.injector();
  const InstanceTotals totals = sys.SumInstanceStats();
  const LatencyBreakdown b = m.MeanBreakdown();
  const double completed = static_cast<double>(m.completed());
  const double launches = static_cast<double>(sys.cold_loads() + sys.warm_loads());
  const HealthMonitor* health = sys.health_monitor();
  const bool detected = health != nullptr && health->first_flag_time() >= 0 &&
                        !injector.degrade_times().empty();

  Metrics c;
  c["wall_s"] = run.wall_s;
  c["submitted"] = static_cast<double>(run.submitted);
  c["completed"] = completed;
  c["trace.requests"] = static_cast<double>(universe.timed_stream()->requests());
  c["trace.self_s"] = trace.seconds();
  c["core.arrival.calls"] = static_cast<double>(arrival.calls);
  c["core.arrival.self_s"] = arrival.seconds();
  c["core.arrival.shed"] = static_cast<double>(f.requests_shed);
  c["core.fault.calls"] = static_cast<double>(fault.calls);
  c["core.fault.self_s"] = fault.seconds();
  c["core.fault.instances_lost"] = static_cast<double>(f.instances_lost);
  c["core.fault.requests_requeued"] = static_cast<double>(f.requests_requeued);
  c["core.fault.requests_resumed"] = static_cast<double>(f.requests_resumed);
  c["core.fault.requests_restarted"] = static_cast<double>(f.requests_restarted);
  c["core.fault.whole_pipeline_losses"] = static_cast<double>(f.whole_pipeline_losses);
  c["core.fault.kv_invalidated_tokens"] = static_cast<double>(sys.kv_invalidated_tokens());
  c["sim.events"] = static_cast<double>(universe.env().sim().executed_events());
  c["sim.peak_arena_slots"] = static_cast<double>(universe.env().sim().arena_slots());
  c["sim.faults_fired"] = static_cast<double>(injector.faults_fired());
  c["sim.gpus_lost"] = static_cast<double>(injector.gpus_lost());
  c["runtime.instance.waves"] = static_cast<double>(totals.waves);
  c["tokens"] = static_cast<double>(totals.tokens);
  c["runtime.instance.prefills"] = static_cast<double>(totals.prefills);
  c["exec_s_total"] = b.exec_s * completed;
  c["comm_s_total"] = b.comm_s * completed;
  c["queue_s_total"] = b.queue_s * completed;
  c["runtime.instance.stall_gpu_s"] = ToSeconds(sys.TotalStallAll());
  c["busy_gpu_s"] = ToSeconds(sys.TotalBusyAll());
  c["reserved_gpu_s"] = sys.GpuSecondsReserved(run.ran_until);
  c["runtime.router.max_queue"] = static_cast<double>(sys.router().max_queue_length());
  c["core.controller.launches"] = launches;
  c["core.controller.cold_loads"] = static_cast<double>(sys.cold_loads());
  c["core.controller.warm_loads"] = static_cast<double>(sys.warm_loads());
  c["core.controller.refactors"] = static_cast<double>(sys.refactor_count());
  c["core.controller.refactor_pause_s"] = ToSeconds(sys.total_refactor_pause());
  c["core.controller.kv_migrated_gib"] =
      static_cast<double>(sys.kv_migrated_bytes()) / static_cast<double>(GiB(1));
  c["alloc_wait_s_total"] = sys.MeanAllocationWaitSec() * launches;
  c["core.health.flags"] = health != nullptr ? health->flags_raised() : 0.0;
  c["core.health.quarantines"] = health != nullptr ? health->quarantine_count() : 0.0;
  c["core.health.readmissions"] = health != nullptr ? health->readmissions() : 0.0;
  c["core.health.migrations"] = static_cast<double>(sys.health_migrations());
  c["detections"] = detected ? 1.0 : 0.0;
  c["detection_s_total"] =
      detected ? ToSeconds(health->first_flag_time() - injector.degrade_times().front())
               : 0.0;
  return c;
}

bool IsHighWaterMark(const std::string& name) {
  return name == "sim.peak_arena_slots" || name == "runtime.router.max_queue";
}

void PoolCounters(const Metrics& counters, Metrics* pooled) {
  for (const auto& [name, value] : counters) {
    double& slot = (*pooled)[name];
    slot = IsHighWaterMark(name) ? std::max(slot, value) : slot + value;
  }
}

// The per_layer metrics of BENCHMARK.json from the pooled counters.
Metrics LayerMetrics(const Metrics& c, double untraced_wall_s) {
  auto at = [&c](const char* name) {
    auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  const double wall = at("wall_s");
  const double submitted = at("submitted");
  const double waves = at("runtime.instance.waves");
  const double dispatch =
      wall - at("trace.self_s") - at("core.arrival.self_s") - at("core.fault.self_s");
  Metrics out;
  for (const char* name :
       {"trace.requests", "trace.self_s", "core.arrival.calls", "core.arrival.self_s",
        "core.arrival.shed", "core.fault.calls", "core.fault.self_s",
        "core.fault.instances_lost", "core.fault.requests_requeued",
        "core.fault.requests_resumed", "core.fault.requests_restarted",
        "core.fault.whole_pipeline_losses", "core.fault.kv_invalidated_tokens", "sim.events",
        "sim.peak_arena_slots", "sim.faults_fired", "sim.gpus_lost", "runtime.instance.waves",
        "runtime.instance.prefills", "runtime.instance.stall_gpu_s",
        "runtime.router.max_queue", "core.controller.launches", "core.controller.cold_loads",
        "core.controller.warm_loads", "core.controller.refactors",
        "core.controller.refactor_pause_s", "core.controller.kv_migrated_gib",
        "core.health.flags", "core.health.quarantines", "core.health.readmissions",
        "core.health.migrations"}) {
    out[name] = at(name);
  }
  out["trace.ns_per_request"] = Ratio(at("trace.self_s") * 1e9, at("trace.requests"));
  out["trace.share"] = Ratio(at("trace.self_s"), wall);
  out["core.arrival.ns_per_call"] =
      Ratio(at("core.arrival.self_s") * 1e9, at("core.arrival.calls"));
  out["core.arrival.share"] = Ratio(at("core.arrival.self_s"), wall);
  out["sim.events_per_request"] = Ratio(at("sim.events"), submitted);
  out["sim.dispatch_self_s"] = dispatch;
  out["sim.dispatch_share"] = Ratio(dispatch, wall);
  out["runtime.instance.waves_per_request"] = Ratio(waves, submitted);
  out["runtime.instance.tokens_per_wave"] = Ratio(at("tokens"), waves);
  out["runtime.instance.events_per_wave"] = Ratio(at("sim.events"), waves);
  out["runtime.instance.exec_s"] = Ratio(at("exec_s_total"), at("completed"));
  out["runtime.instance.comm_s"] = Ratio(at("comm_s_total"), at("completed"));
  out["runtime.instance.gpu_utilization"] = Ratio(at("busy_gpu_s"), at("reserved_gpu_s"));
  out["runtime.router.queue_wait_s"] = Ratio(at("queue_s_total"), at("completed"));
  out["core.controller.warm_load_ratio"] =
      Ratio(at("core.controller.warm_loads"), at("core.controller.launches"));
  out["core.controller.alloc_wait_s"] =
      Ratio(at("alloc_wait_s_total"), at("core.controller.launches"));
  out["core.health.detection_s"] = Ratio(at("detection_s_total"), at("detections"));
  out["bench.trace_overhead"] = Ratio(wall, untraced_wall_s) - 1.0;
  return out;
}

// -- Modes ---------------------------------------------------------------------------------

struct Options {
  std::string workload;
  WorkloadKind kind = WorkloadKind::kSteadyDecode;
  uint64_t seed = 42;
  double seconds = 20.0;
  bool traced = false;
  int universes = 0;   // 0 = DefaultUniverses(kind)
  TimeNs traffic = 0;  // 0 = the workload's span
};

struct Report {
  std::vector<std::string> errors;
  int runs = 0;
  int failed_runs = 0;
  uint64_t digest = kFnvBasis;  // over the batch's universe digests, in batch order
  ServingPool serving;
  Metrics metrics;
};

// Checks one finished universe against the exactly-once ledger and, when given, the
// digest an earlier run of the same universe produced; returns its digest.
uint64_t Check(Universe& universe, const RunResult& run, uint64_t seed,
               std::optional<uint64_t> expected, Report* report) {
  const size_t errors_before = report->errors.size();
  const std::string tag = "universe seed " + std::to_string(seed) + ": ";
  if (run.submitted <= 0 || run.submitted != run.completed + run.shed ||
      run.live_after_drain != 0) {
    report->errors.push_back(tag + "ledger violated: submitted " +
                             std::to_string(run.submitted) + ", completed " +
                             std::to_string(run.completed) + ", shed " +
                             std::to_string(run.shed) + ", live " +
                             std::to_string(run.live_after_drain));
  }
  const uint64_t digest = Digest(universe, run);
  if (expected.has_value() && digest != *expected) {
    report->errors.push_back(tag + "digest differs between runs of the same universe");
  }
  ++report->runs;
  report->failed_runs += report->errors.size() > errors_before ? 1 : 0;
  return digest;
}

std::vector<uint64_t> SeedsOf(const Options& opt) {
  return BatchSeeds(opt.seed, opt.universes > 0 ? opt.universes : DefaultUniverses(opt.kind));
}

void RunUntraced(const Options& opt, Report* report) {
  const std::vector<uint64_t> seeds = SeedsOf(opt);
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupSamples; ++i) {
    const Clock::time_point start = Clock::now();
    Universe universe(opt.kind, opt.seed, opt.traffic, /*traced=*/false);
    setup_s.push_back(SecondsSince(start));
  }
  std::vector<std::vector<double>> walls(seeds.size());
  std::vector<uint64_t> digests(seeds.size());
  double sim_hours = 0.0;
  const Clock::time_point begin = Clock::now();
  for (size_t i = 0; i < seeds.size() || SecondsSince(begin) < opt.seconds; ++i) {
    const size_t j = i % seeds.size();
    const bool first_pass = i < seeds.size();
    const Clock::time_point start = Clock::now();
    Universe universe(opt.kind, seeds[j], opt.traffic, /*traced=*/false);
    setup_s.push_back(SecondsSince(start));
    const RunResult run = universe.Run();
    walls[j].push_back(run.wall_s);
    const uint64_t digest = Check(universe, run, seeds[j],
                                  first_pass ? std::nullopt : std::optional(digests[j]), report);
    if (first_pass) {
      digests[j] = digest;
      report->digest = Fnv1a(report->digest, digest);
      report->serving.Add(universe, run);
      sim_hours += ToSeconds(run.ran_until) / 3600.0;
    }
  }
  double wall_s = 0.0;
  for (const std::vector<double>& w : walls) {
    wall_s += Median(w);
  }
  report->serving.Report(&report->metrics);
  report->metrics["wall_s_per_sim_hour"] = wall_s / sim_hours;
  report->metrics["sim_requests_per_wall_s"] =
      static_cast<double>(report->serving.submitted()) / wall_s;
  report->metrics["setup_s"] = Median(setup_s);
  report->metrics["peak_rss_mib"] = PeakRssMiB();
}

void RunTraced(const Options& opt, Report* report) {
  std::vector<uint64_t> seeds = SeedsOf(opt);
  seeds.resize((seeds.size() + 1) / 2);
  Metrics pooled;
  double untraced_wall_s = 0.0;
  for (uint64_t seed : seeds) {
    uint64_t digest = 0;
    {
      Universe universe(opt.kind, seed, opt.traffic, /*traced=*/false);
      const RunResult run = universe.Run();
      untraced_wall_s += run.wall_s;
      digest = Check(universe, run, seed, std::nullopt, report);
      report->digest = Fnv1a(report->digest, digest);
      report->serving.Add(universe, run);
    }
    Universe universe(opt.kind, seed, opt.traffic, /*traced=*/true);
    const RunResult run = universe.Run();
    Check(universe, run, seed, digest, report);
    PoolCounters(LayerCounters(universe, run), &pooled);
  }
  report->metrics = LayerMetrics(pooled, untraced_wall_s);
}

// -- Output -----------------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintReport(const Options& opt, const BuildInfo& build, const Report& report) {
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(report.digest));
  std::string out = "{\"workload\": " + JsonString(opt.workload) +
                    ", \"seed\": " + std::to_string(opt.seed) +
                    ", \"trace\": " + (opt.traced ? "1" : "0") +
                    ", \"runs\": " + std::to_string(report.runs) +
                    ", \"failed_runs\": " + std::to_string(report.failed_runs) +
                    ", \"digest\": " + JsonString(digest);
  out += ", \"requests\": {\"sent\": " + std::to_string(report.serving.submitted()) +
         ", \"completed\": " + std::to_string(report.serving.completed()) +
         ", \"shed\": " + std::to_string(report.serving.shed()) + "}";
  out += ", \"build\": {\"type\": " + JsonString(build.build_type) +
         ", \"compiler\": " + JsonString(build.compiler) +
         ", \"nproc\": " + std::to_string(build.nproc) + "}";
  out += ", \"errors\": [";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(report.errors[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    out += (first ? "" : ", ") + JsonString(name) + ": " + JsonNumber(value);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload steady_decode|burst_prefill|fault_storm [--seed N] "
               "[--seconds S] [--trace 0|1] [--universes K] [--traffic-minutes M]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  double traffic_minutes = 0.0;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) {
      return Usage(argv[0]);
    }
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, &end);
    } else if (flag == "--trace" &&
               (std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0)) {
      opt.traced = value[0] == '1';
    } else if (flag == "--universes") {
      opt.universes = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--traffic-minutes") {
      traffic_minutes = std::strtod(value, &end);
    } else {
      return Usage(argv[0]);
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return Usage(argv[0]);
    }
  }
  if (!ParseWorkload(opt.workload, &opt.kind) ||
      !(opt.seconds >= 0.0 && opt.seconds <= 600.0) || opt.universes < 0 ||
      opt.universes > 10000 || !(traffic_minutes >= 0.0 && traffic_minutes <= 24 * 60.0)) {
    return Usage(argv[0]);
  }
  opt.traffic = static_cast<TimeNs>(traffic_minutes * static_cast<double>(kMinute));
  const BuildInfo build = DetectBuild();
  if (!build.comparable()) {
    std::fprintf(stderr,
                 "refusing to measure a non-comparable build (type %s, optimized %d, "
                 "sanitizer %d, audit %d): configure with -DCMAKE_BUILD_TYPE=Release, "
                 "no FLEXPIPE_SANITIZE, no FLEXPIPE_AUDIT\n",
                 build.build_type.c_str(), build.optimized ? 1 : 0, build.sanitizer ? 1 : 0,
                 build.audit ? 1 : 0);
    return 3;
  }
  Report report;
  if (opt.traced) {
    RunTraced(opt, &report);
  } else {
    RunUntraced(opt, &report);
  }
  PrintReport(opt, build, report);
  return 0;
}

}  // namespace
}  // namespace flexpipe::perfbench

int main(int argc, char** argv) { return flexpipe::perfbench::Main(argc, argv); }
