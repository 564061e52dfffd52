#include "exec/stats.h"

namespace netclus::exec {

namespace {
constexpr double kEwmaAlpha = 0.2;
}  // namespace

void StatsRegistry::StageSlot::Bump(double seconds) {
  {
    const nc::MutexLock lock(mu);
    stats.ewma_seconds = stats.count == 0
                             ? seconds
                             : kEwmaAlpha * seconds +
                                   (1.0 - kEwmaAlpha) * stats.ewma_seconds;
    ++stats.count;
    stats.total_seconds += seconds;
  }
  if (obs::Histogram* h = hist.load(std::memory_order_acquire)) {
    h->Observe(seconds);
  }
}

void StatsRegistry::BindMetrics(obs::MetricsRegistry* metrics) {
  const auto bind_stage = [&](StageSlot* slot, const char* stage) {
    obs::Histogram* h = metrics->GetHistogram(
        "netclus_exec_stage_seconds", {{"stage", stage}},
        "Executor stage latency by stage");
    slot->hist.store(h, std::memory_order_release);
  };
  bind_stage(&plan_, "plan");
  bind_stage(&queue_wait_, "queue_wait");
  bind_stage(&cover_build_, "cover_build");
  bind_stage(&cover_traverse_, "cover_traverse");
  bind_stage(&cover_transpose_, "cover_transpose");
  // Solve latencies are exported per solver only, so summing the stage's
  // series still counts every solve once.
  for (size_t i = 0; i < kNumSolverKinds; ++i) {
    obs::Histogram* h = metrics->GetHistogram(
        "netclus_exec_stage_seconds",
        {{"stage", "solve"},
         {"solver", SolverName(static_cast<SolverKind>(i))}},
        "Executor stage latency by stage");
    solve_by_solver_[i].hist.store(h, std::memory_order_release);
  }
  bind_stage(&assemble_, "assemble");

  const auto bind_count = [&](const char* name, const char* help,
                              const std::atomic<uint64_t>* value) {
    metrics->RegisterProvider(
        name, {}, help, /*counter=*/true, [value]() {
          return static_cast<double>(value->load(std::memory_order_relaxed));
        });
  };
  bind_count("netclus_exec_covers_built_total",
             "Approximate covering sets constructed", &covers_built_);
  bind_count("netclus_exec_covers_shared_total",
             "Solves served by a reused cover", &covers_shared_);
  bind_count("netclus_exec_fm_fallbacks_total",
             "FM + existing-services exact fallbacks", &fm_fallbacks_);
  bind_count("netclus_serve_shed_overload_total",
             "Requests rejected at admission (queues full)", &shed_overload_);
  bind_count("netclus_serve_shed_deadline_total",
             "Requests dropped past their soft deadline", &shed_deadline_);
  bind_count("netclus_serve_stale_served_total",
             "Requests answered from an older snapshot version",
             &stale_served_);
}

void StatsRegistry::RecordPlan(double seconds) { plan_.Bump(seconds); }

void StatsRegistry::RecordQueueWait(double seconds) {
  queue_wait_.Bump(seconds);
}

void StatsRegistry::RecordCoverBuild(size_t instance, double seconds,
                                     double traverse_seconds,
                                     double transpose_seconds, uint64_t bytes) {
  cover_build_.Bump(seconds);
  cover_traverse_.Bump(traverse_seconds);
  cover_transpose_.Bump(transpose_seconds);
  covers_built_.fetch_add(1, std::memory_order_relaxed);
  const nc::MutexLock lock(instances_mu_);
  if (instance >= instances_.size()) instances_.resize(instance + 1);
  InstanceStats& per = instances_[instance];
  per.ewma_build_seconds =
      per.cover_builds == 0
          ? seconds
          : kEwmaAlpha * seconds + (1.0 - kEwmaAlpha) * per.ewma_build_seconds;
  ++per.cover_builds;
  per.last_cover_bytes = bytes;
}

void StatsRegistry::RecordCoverShared() {
  covers_shared_.fetch_add(1, std::memory_order_relaxed);
}

void StatsRegistry::RecordSolve(SolverKind solver, double seconds) {
  solve_.Bump(seconds);
  solve_by_solver_[static_cast<size_t>(solver)].Bump(seconds);
}

void StatsRegistry::RecordAssemble(double seconds) { assemble_.Bump(seconds); }

void StatsRegistry::RecordFmFallback() {
  fm_fallbacks_.fetch_add(1, std::memory_order_relaxed);
}

void StatsRegistry::RecordShedOverload() {
  shed_overload_.fetch_add(1, std::memory_order_relaxed);
}

void StatsRegistry::RecordShedDeadline() {
  shed_deadline_.fetch_add(1, std::memory_order_relaxed);
}

void StatsRegistry::RecordStaleServed() {
  stale_served_.fetch_add(1, std::memory_order_relaxed);
}

StatsRegistry::Snapshot StatsRegistry::snapshot() const {
  Snapshot out;
  {
    const nc::MutexLock lock(plan_.mu);
    out.plan = plan_.stats;
  }
  {
    const nc::MutexLock lock(queue_wait_.mu);
    out.queue_wait = queue_wait_.stats;
  }
  {
    const nc::MutexLock lock(cover_build_.mu);
    out.cover_build = cover_build_.stats;
  }
  {
    const nc::MutexLock lock(cover_traverse_.mu);
    out.cover_traverse = cover_traverse_.stats;
  }
  {
    const nc::MutexLock lock(cover_transpose_.mu);
    out.cover_transpose = cover_transpose_.stats;
  }
  {
    const nc::MutexLock lock(solve_.mu);
    out.solve = solve_.stats;
  }
  for (size_t i = 0; i < kNumSolverKinds; ++i) {
    const nc::MutexLock lock(solve_by_solver_[i].mu);
    out.solve_by_solver[i] = solve_by_solver_[i].stats;
  }
  {
    const nc::MutexLock lock(assemble_.mu);
    out.assemble = assemble_.stats;
  }
  {
    const nc::MutexLock lock(instances_mu_);
    out.instances = instances_;
  }
  out.covers_built = covers_built_.load(std::memory_order_relaxed);
  out.covers_shared = covers_shared_.load(std::memory_order_relaxed);
  out.fm_fallbacks = fm_fallbacks_.load(std::memory_order_relaxed);
  out.shed_overload = shed_overload_.load(std::memory_order_relaxed);
  out.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  out.stale_served = stale_served_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace netclus::exec
