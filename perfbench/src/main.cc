// netclus_perfbench — runs one benchmark workload and prints its result as
// one JSON line on stdout (progress goes to stderr).
//
//   netclus_perfbench --workload cold-query|serve-churn|ingest --seed N
//                     --seconds S --trace 0|1 --work-dir DIR [--rate R]
//
// perfbench/run.py builds this binary, pins the environment, and turns the
// result into the benchmark's report; see perfbench/NOTES.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "store/simd/bulk_varint.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run reports. A workload that does not
/// call a layer reports its metrics as 0 with 0 samples.
constexpr LayerMetric kLayerMetrics[] = {
    {"exec.plan_us", "us"},
    {"exec.cover_build_ms", "ms"},
    {"exec.cover_cpu_ms", "ms"},
    {"exec.cover_parallel_eff", "ratio"},
    {"exec.cover_entries", "count"},
    {"exec.cover_bytes", "bytes"},
    {"exec.cover_traverse_ms", "ms"},
    {"tops.transpose_ms", "ms"},
    {"tops.solve_ms", "ms"},
    {"store.decode_mentries_per_s", "M/s"},
    {"store.save_s", "s"},
    {"store.load_s", "s"},
    {"store.index_mb", "MB"},
    {"netclus.build_s", "s"},
    {"netclus.clone_ms", "ms"},
    {"netclus.add_traj_us", "us"},
    {"netclus.remove_traj_us", "us"},
    {"netclus.add_site_us", "us"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.queue_ms_p99", "ms"},
    {"serve.service_ms_p50", "ms"},
    {"serve.query_cache_hit_ratio", "ratio"},
    {"serve.cover_cache_hit_ratio", "ratio"},
    {"serve.carried", "count"},
    {"serve.stale_frac", "ratio"},
    {"serve.shed_frac", "ratio"},
    {"serve.apply_ms", "ms"},
    {"serve.publish_p50_ms", "ms"},
    {"serve.publish_p95_ms", "ms"},
    {"serve.publish_overhead_ms", "ms"},
    {"util.sched_utilization", "ratio"},
    {"util.sched_stolen", "count"},
    {"bench.send_late_p99_ms", "ms"},
    {"bench.update_late_p99_ms", "ms"},
    {"bench.trace_overhead_frac", "ratio"},
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string CpuIsa() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::string isa;
    for (const char* flag : {"sse4_1", "avx2", "avx512f"}) {
      if (line.find(std::string(" ") + flag) != std::string::npos) {
        isa += isa.empty() ? flag : std::string(",") + flag;
      }
    }
    return isa.empty() ? "baseline" : isa;
  }
  return "unknown";
}

void RecordEnvironment(const RunConfig& cfg, Result* result) {
  auto& env = result->env;
  env.emplace_back("compiler", __VERSION__);
#ifdef NDEBUG
  env.emplace_back("build_type", "Release");
#else
  env.emplace_back("build_type", "Debug");
#endif
  env.emplace_back("cpu_model", CpuModel());
  env.emplace_back("cpu_isa", CpuIsa());
  env.emplace_back("simd_kernel", netclus::store::simd::KernelName(
                                      netclus::store::simd::ActiveKernel()));
  env.emplace_back("nproc", std::to_string(cfg.threads));
  env.emplace_back("seed", std::to_string(cfg.seed));
}

bool ParseArgs(int argc, char** argv, RunConfig* cfg) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      cfg->workload = value;
    } else if (key == "--seed") {
      cfg->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      cfg->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      cfg->trace = value == "1";
    } else if (key == "--work-dir") {
      cfg->work_dir = value;
    } else if (key == "--rate") {
      cfg->rate = std::strtod(value.c_str(), nullptr);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 != 1 || cfg->work_dir.empty() || !(cfg->seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: netclus_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--rate R]\n");
    return false;
  }
  return true;
}

}  // namespace

void AddUtilityGate(Result* result, double ratio, double min_ratio,
                    size_t specs) {
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "mean %.4f (min %.4f) over %zu specs, floor %.2f", ratio,
                min_ratio, specs, kUtilityFloor);
  result->AddGate("utility_ratio_floor", specs > 0 && ratio >= kUtilityFloor,
                  detail);
}

void FinishTrace(const RunConfig& cfg, const SpanRecorder& spans,
                 Result* result) {
  for (const LayerMetric& m : kLayerMetrics) {
    bool present = false;
    for (const Metric& have : result->metrics) present |= have.name == m.name;
    if (!present) result->Add(m.name, 0.0, m.unit, 0, Kind::kLayer);
  }
  spans.AddSelfTimes(result);
  const std::string path = cfg.work_dir + "/spans-" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + ".json";
  if (!spans.WriteJson(path)) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  } else {
    result->env.emplace_back("spans_file", path);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  if (!ParseArgs(argc, argv, &cfg)) return 2;
  cfg.threads = std::max(1u, std::thread::hardware_concurrency());

  Result result;
  try {
    if (cfg.workload == "cold-query") {
      result = RunColdQuery(cfg);
    } else if (cfg.workload == "serve-churn") {
      result = RunServeChurn(cfg);
    } else if (cfg.workload == "ingest") {
      result = RunIngest(cfg);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", cfg.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s failed: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }
  result.workload = cfg.workload;
  result.seed = cfg.seed;
  result.trace = cfg.trace;
  RecordEnvironment(cfg, &result);
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}
