// cold-query: one client in a closed loop calls Engine::Run with the
// engine's threads set to nproc. Every spec has its own continuous τ, so
// no two queries share a cover: each query pays the full cover build
// (exec), the solve (tops) and the posting decode (store), and the
// serving layer is bypassed entirely. Set-up is the offline-build /
// online-load deployment: build the index, save it as v3, reload it
// memory-mapped into a fresh engine, and serve from that engine.
//
// The traced run answers every spec twice, once through Engine::Run and
// once through Plan -> ObtainCover -> ExecuteOnCover with a span around
// each call (alternating which goes first), so the two answers are
// compared bit for bit and the tracing overhead is measured on the same
// specs.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "exec/executor.h"
#include "exec/planner.h"
#include "util/memory.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kWarmupQueries = 10;
constexpr size_t kSpecPool = 6000;
constexpr size_t kUtilitySpecs = 6;
constexpr size_t kReplaySpecs = 8;

struct Deployment {
  std::unique_ptr<Engine> engine;  ///< serves from the mmap'ed v3 file
  double build_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  double setup_s = 0.0;
  uint64_t file_bytes = 0;
};

Deployment Deploy(const RunConfig& cfg, const std::string& path) {
  Deployment dep;
  const int64_t t0 = NowNs();
  const std::unique_ptr<Engine> engine =
      BuildEngine(cfg.threads, /*all_sites=*/true, &dep.build_s);
  const Engine& built = *engine;

  std::string error;
  int64_t t = NowNs();
  if (!built.SaveIndexToFile(path, &error)) {
    throw std::runtime_error("SaveIndexToFile: " + error);
  }
  dep.save_s = (NowNs() - t) / 1e9;
  dep.file_bytes = std::filesystem::file_size(path);

  Engine::Options options = built.options();
  options.index_load_mode = index::IndexLoadMode::kMmap;
  dep.engine = std::make_unique<Engine>(built.network(), built.sites(), options);
  const traj::TrajectoryStore& store = built.store();
  for (traj::TrajId id = 0; id < store.total_count(); ++id) {
    if (store.is_alive(id)) dep.engine->AddTrajectory(store.trajectory(id).nodes());
  }
  t = NowNs();
  if (!dep.engine->LoadIndexFromFile(path, &error)) {
    throw std::runtime_error("LoadIndexFromFile: " + error);
  }
  dep.load_s = (NowNs() - t) / 1e9;
  dep.setup_s = (NowNs() - t0) / 1e9;
  return dep;
}

/// The Plan -> Validate -> ObtainCover -> ExecuteOnCover sequence that
/// Engine::Run performs internally, on the same engine parts.
class TracedPath {
 public:
  explicit TracedPath(const Engine& engine)
      : engine_(engine),
        planner_(&ctx_),
        executor_(&engine.index(), &engine.store(), &engine.sites(), &ctx_) {}

  struct Timing {
    int64_t plan_ns = 0, validate_ns = 0, cover_ns = 0, solve_ns = 0;
    double cover_cpu_s = 0.0;
    uint64_t cover_bytes = 0;
    size_t instance = 0;
  };

  /// Answers `spec`; records spans when `spans` is non-null. Keeps the
  /// built cover in *cover for the layer probes.
  index::QueryResult Answer(const Engine::QuerySpec& spec, uint64_t request,
                            SpanRecorder* spans, Timing* timing,
                            exec::CoverPtr* cover) const {
    const int64_t t0 = NowNs();
    const exec::QueryPlan plan = planner_.Plan(
        spec.ToRequest(engine_.options().threads), engine_.index(), 1);
    const int64_t t1 = NowNs();
    executor_.ValidatePlan(plan);
    const int64_t t2 = NowNs();
    const double cpu0 = ProcessCpuSeconds();
    bool reused = false;
    *cover = executor_.ObtainCover(plan, plan.threads, &reused);
    const double cpu1 = ProcessCpuSeconds();
    const int64_t t3 = NowNs();
    index::QueryResult out = executor_.ExecuteOnCover(plan, *cover, reused);
    const int64_t t4 = NowNs();
    out.total_seconds = (t4 - t0) / 1e9;
    if (spans != nullptr) {
      const uint64_t root = spans->NextId();
      spans->Add("exec.plan", t0, t1, root, request);
      spans->Add("exec.validate", t1, t2, root, request);
      spans->Add("exec.obtain_cover", t2, t3, root, request);
      spans->Add("tops.execute_on_cover", t3, t4, root, request);
      spans->AddWithId(root, "request", t0, t4, 0, request);
    }
    if (timing != nullptr) {
      timing->plan_ns = t1 - t0;
      timing->validate_ns = t2 - t1;
      timing->cover_ns = t3 - t2;
      timing->solve_ns = t4 - t3;
      timing->cover_cpu_s = cpu1 - cpu0;
      timing->cover_bytes = (*cover)->bytes;
      timing->instance = plan.instance;
    }
    return out;
  }

 private:
  const Engine& engine_;
  exec::ExecContext ctx_;
  exec::Planner planner_;
  exec::Executor executor_;
};

/// tops probe: CoverageIndex::FromCovers re-run on the built cover's TC
/// lists (the transpose half of a cover build), recorded as a span.
/// Returns seconds; *entries receives the cover's entry count and
/// *same_sites whether the rebuilt index has the cover's site count.
double TransposeProbe(const exec::BuiltCover& cover, uint64_t request,
                      SpanRecorder* spans, uint64_t* entries, bool* same_sites) {
  const tops::CoverageIndex& approx = cover.approx;
  std::vector<std::vector<tops::CoverEntry>> tc(approx.num_sites());
  *entries = 0;
  for (size_t s = 0; s < approx.num_sites(); ++s) {
    for (const tops::CoverEntry& e : approx.TC(s)) tc[s].push_back(e);
    *entries += tc[s].size();
  }
  const int64_t t0 = NowNs();
  const tops::CoverageIndex again = tops::CoverageIndex::FromCovers(
      std::move(tc), approx.num_trajectories(), approx.num_live_trajectories(),
      approx.tau_m());
  const int64_t t1 = NowNs();
  spans->Add("tops.from_covers", t0, t1, 0, request);
  *same_sites = again.num_sites() == approx.num_sites();
  return (t1 - t0) / 1e9;
}

/// store probe: ForEach over every TL list of instance `p`, recorded as a
/// span. Returns the entries decoded; *seconds receives the time.
uint64_t DecodeProbe(const Engine& engine, size_t p, uint64_t request,
                     SpanRecorder* spans, double* seconds) {
  const index::ClusterIndex& inst = engine.index().instance(p);
  uint64_t entries = 0;
  const int64_t t0 = NowNs();
  for (const index::Cluster& c : inst.clusters()) {
    c.tl.ForEach([&](const index::TlEntry&) { ++entries; });
  }
  const int64_t t1 = NowNs();
  spans->Add("store.tl_foreach", t0, t1, 0, request);
  *seconds = (t1 - t0) / 1e9;
  return entries;
}

}  // namespace

Result RunColdQuery(const RunConfig& cfg) {
  Result result;
  const std::string path =
      cfg.work_dir + "/cold-query-" + std::to_string(getpid()) + ".ncix";

  // Set-up, repeated; the last deployment serves the run.
  std::vector<double> setup_s, build_s, save_s, load_s;
  Deployment dep;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    dep = Deployment();  // release the previous engine before rebuilding
    dep = Deploy(cfg, path);
    setup_s.push_back(dep.setup_s);
    build_s.push_back(dep.build_s);
    save_s.push_back(dep.save_s);
    load_s.push_back(dep.load_s);
  }
  const Engine& engine = *dep.engine;
  std::fprintf(stderr, "cold-query: %zu trajectories, %zu sites, %zu instances\n",
               engine.store().live_count(), engine.sites().size(),
               engine.index().num_instances());

  util::Rng rng(cfg.seed);
  const Payloads payloads = MakePayloads(engine.sites().size(), cfg.seed + 7);
  std::vector<Engine::QuerySpec> specs;
  specs.reserve(kSpecPool);
  SpecStream stream(SpecMix::kCold, engine.sites().size(), &payloads);
  for (size_t i = 0; i < kSpecPool; ++i) specs.push_back(stream.Next(rng));

  const TracedPath traced(engine);
  SpanRecorder spans;
  std::vector<double> latency_ms;
  std::vector<index::QueryResult> answers;
  std::vector<size_t> answered;  // spec index of each answers[] entry
  uint64_t ok = 0, failed = 0, mismatches = 0, compared = 0, probe_diffs = 0;
  // Traced-run per-layer samples.
  std::vector<double> plan_us, cover_ms, cover_cpu_ms, entries, bytes,
      transpose_ms, traverse_ms, solve_ms;
  double cpu_sum = 0.0, wall_sum = 0.0, run_ns_sum = 0.0, traced_ns_sum = 0.0;
  uint64_t decoded = 0;
  double decode_s = 0.0;

  for (size_t i = 0; i < kWarmupQueries; ++i) engine.Run(specs[i]);

  const int64_t start = NowNs();
  const int64_t stop_at = start + static_cast<int64_t>(cfg.seconds * 1e9);
  size_t next = kWarmupQueries;
  // The traced run reports no percentiles, so it needs no minimum count.
  const uint64_t min_requests = cfg.trace ? 1 : kMinRequests;
  while (NowNs() < stop_at || ok + failed < min_requests) {
    const size_t i = next++;
    const Engine::QuerySpec& spec = specs[i % specs.size()];
    if (!cfg.trace) {
      const int64_t t0 = NowNs();
      try {
        index::QueryResult r = engine.Run(spec);
        latency_ms.push_back(NsToMs(NowNs() - t0));
        answers.push_back(std::move(r));
        answered.push_back(i);
        ++ok;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "cold-query: spec %zu failed: %s\n", i, e.what());
        ++failed;
      }
      continue;
    }
    // Traced: both paths on the same spec, alternating order.
    index::QueryResult via_run, via_trace;
    TracedPath::Timing timing;
    exec::CoverPtr cover;
    int64_t run_ns = 0, trace_ns = 0;
    try {
      for (int leg = 0; leg < 2; ++leg) {
        const bool run_leg = (leg == 0) == (i % 2 == 0);
        const int64_t t0 = NowNs();
        if (run_leg) {
          via_run = engine.Run(spec);
          run_ns = NowNs() - t0;
        } else {
          via_trace = traced.Answer(spec, i, &spans, &timing, &cover);
          trace_ns = NowNs() - t0;
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cold-query: spec %zu failed: %s\n", i, e.what());
      ++failed;
      continue;
    }
    ++ok;
    ++compared;
    if (!SameAnswer(via_run, via_trace)) ++mismatches;
    answers.push_back(std::move(via_run));
    answered.push_back(i);
    run_ns_sum += static_cast<double>(run_ns);
    traced_ns_sum += static_cast<double>(trace_ns);

    plan_us.push_back(timing.plan_ns / 1e3);
    cover_ms.push_back(NsToMs(timing.cover_ns));
    cover_cpu_ms.push_back(timing.cover_cpu_s * 1e3);
    cpu_sum += timing.cover_cpu_s;
    wall_sum += timing.cover_ns / 1e9;
    bytes.push_back(static_cast<double>(timing.cover_bytes));
    solve_ms.push_back(NsToMs(timing.solve_ns));

    uint64_t cover_entries = 0;
    bool same_sites = false;
    const double transpose_s =
        TransposeProbe(*cover, i, &spans, &cover_entries, &same_sites);
    if (!same_sites) ++probe_diffs;
    entries.push_back(static_cast<double>(cover_entries));
    transpose_ms.push_back(transpose_s * 1e3);
    traverse_ms.push_back(NsToMs(timing.cover_ns) - transpose_s * 1e3);
    double seconds = 0.0;
    decoded += DecodeProbe(engine, timing.instance, i, &spans, &seconds);
    decode_s += seconds;
  }
  const double elapsed = (NowNs() - start) / 1e9;
  const double peak_rss_mb = util::ReadVmHwmBytes() / (1024.0 * 1024.0);
  result.attempted = ok + failed;
  result.failed = failed;

  // Gate: the traced path answers exactly as Engine::Run. The traced run
  // compared every spec; an untraced run replays a seeded sample.
  if (!cfg.trace) {
    util::Rng pick(cfg.seed ^ 0x7e1a);
    for (size_t n = 0; n < kReplaySpecs && !answers.empty(); ++n) {
      const size_t j = pick.UniformInt(answers.size());
      exec::CoverPtr cover;
      const index::QueryResult again =
          traced.Answer(specs[answered[j] % specs.size()], answered[j], nullptr,
                        nullptr, &cover);
      ++compared;
      if (!SameAnswer(again, answers[j])) ++mismatches;
    }
  }
  result.AddGate("traced_path_bit_identical", compared > 0 && mismatches == 0,
                 std::to_string(compared - mismatches) + "/" +
                     std::to_string(compared) + " answers equal Engine::Run");
  if (cfg.trace) {
    result.AddGate("transpose_probe_same_sites", probe_diffs == 0,
                   std::to_string(compared - probe_diffs) + "/" +
                       std::to_string(compared) +
                       " FromCovers rebuilds keep the cover's site count");
  }

  // Quality: the first exact-comparable specs of the timed stream.
  std::vector<Engine::QuerySpec> sample;
  std::vector<index::QueryResult> sample_answers;
  for (size_t j = 0; j < answers.size() && sample.size() < kUtilitySpecs; ++j) {
    const Engine::QuerySpec& spec = specs[answered[j] % specs.size()];
    if (ExactComparable(spec)) {
      sample.push_back(spec);
      sample_answers.push_back(answers[j]);
    }
  }
  double min_ratio = 0.0;
  const double ratio = UtilityRatio(engine, sample, sample_answers, &min_ratio);
  AddUtilityGate(&result, ratio, min_ratio, sample.size());

  std::error_code ec;
  std::filesystem::remove(path, ec);

  // Metrics.
  result.Add("setup_s", Median(setup_s), "s", setup_s.size(), Kind::kEndToEnd);
  result.Add("peak_rss_mb", peak_rss_mb, "MB", 1, Kind::kEndToEnd);
  result.Add("utility_ratio", ratio, "ratio", sample.size(), Kind::kEndToEnd);
  result.Add("ok_frac", result.attempted ? static_cast<double>(ok) / result.attempted : 0.0,
             "ratio", result.attempted, Kind::kEndToEnd);
  if (!cfg.trace) {
    result.Add("latency_p50_ms", Quantile(latency_ms, 0.5), "ms", latency_ms.size(),
               Kind::kEndToEnd);
    result.Add("latency_p99_ms", Quantile(latency_ms, 0.99), "ms", latency_ms.size(),
               Kind::kEndToEnd);
    result.Add("throughput_per_s", ok / elapsed, "1/s", ok, Kind::kEndToEnd);
    result.Add("throughput_qps", ok / elapsed, "1/s", ok, Kind::kInfo);
  }
  result.Add("timed_s", elapsed, "s", 1, Kind::kInfo);
  if (!cfg.trace) return result;

  const auto layer = [&](const char* name, double value, const char* unit,
                         uint64_t n) { result.Add(name, value, unit, n, Kind::kLayer); };
  const uint64_t n = plan_us.size();
  layer("exec.plan_us", Median(plan_us), "us", n);
  layer("exec.cover_build_ms", Median(cover_ms), "ms", n);
  layer("exec.cover_cpu_ms", Median(cover_cpu_ms), "ms", n);
  layer("exec.cover_parallel_eff",
        wall_sum > 0.0 ? cpu_sum / (wall_sum * cfg.threads) : 0.0, "ratio", n);
  layer("exec.cover_entries", Median(entries), "count", n);
  layer("exec.cover_bytes", Median(bytes), "bytes", n);
  layer("exec.cover_traverse_ms", Median(traverse_ms), "ms", n);
  layer("tops.transpose_ms", Median(transpose_ms), "ms", n);
  layer("tops.solve_ms", Median(solve_ms), "ms", n);
  layer("store.decode_mentries_per_s",
        decode_s > 0.0 ? decoded / decode_s / 1e6 : 0.0, "M/s", n);
  layer("store.save_s", Median(save_s), "s", save_s.size());
  layer("store.load_s", Median(load_s), "s", load_s.size());
  layer("store.index_mb", dep.file_bytes / (1024.0 * 1024.0), "MB", 1);
  layer("netclus.build_s", Median(build_s), "s", build_s.size());
  layer("bench.trace_overhead_frac",
        run_ns_sum > 0.0 ? traced_ns_sum / run_ns_sum - 1.0 : 0.0, "ratio", n);
  FinishTrace(cfg, spans, &result);
  return result;
}

}  // namespace perfbench
