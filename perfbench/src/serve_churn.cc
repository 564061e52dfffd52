// serve-churn: reads beside writes through the serving layer.
//
// An open loop sends seeded arrivals through SubmitAsync: a zipf(0.9) pick
// over a 128-spec catalog with 8 τ values, at a fixed offered rate well
// below the measured knee (NOTES.md). A second generator thread sends the
// sliding-window update stream at a fixed pace, each op followed by
// Flush. Latency runs from each request's scheduled send time to its
// completion callback, so it includes queue wait and any stall of the
// generator. The arrival times come only from the seed: the timed window
// holds exactly max(rate * seconds, kMinRequests) arrivals placed as the
// order statistics of uniform draws, which is a Poisson process
// conditioned on its count.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>

#include "serving.h"
#include "util/memory.h"

namespace perfbench {
namespace {

/// Offered rate, requests/s: about half the knee measured in NOTES.md.
constexpr double kServeRate = 50.0;
/// Paced update stream, ops/s (one op per publish).
constexpr double kUpdateRate = 10.0;
constexpr double kWarmupSeconds = 3.0;
constexpr size_t kCatalog = 128;
constexpr size_t kTaus = 8;
constexpr double kZipfS = 0.9;
constexpr size_t kReplaySample = 24;
/// The replay sample is drawn from the warm-up arrivals before this
/// offset, so the replays (single-threaded cover builds on the main
/// thread) end well before the timed window opens.
constexpr double kReplayBeforeSeconds = 1.5;
/// A run whose generator lateness p99 exceeds this share of the mean gap
/// between its sends no longer offered the scheduled load: invalid.
constexpr double kMaxLateShare = 1.0;

struct CatalogEntry {
  Engine::QuerySpec spec;
  serve::Priority priority = serve::Priority::kNormal;
  serve::StalenessPolicy staleness;
};

/// Completion counts plus the queue of sampled kOk completions awaiting
/// their replay check; callbacks report, the main thread consumes.
class Completions {
 public:
  Completions(size_t expected, size_t sampled)
      : outstanding_(expected), sampled_outstanding_(sampled) {}

  /// `sampled`: the request is in the replay sample; `ok`: it completed
  /// with kOk and is queued for its replay.
  void Done(bool sampled, bool ok, size_t request) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (sampled) {
      if (ok) ready_.push_back(request);
      --sampled_outstanding_;
    }
    --outstanding_;
    cv_.notify_all();
  }

  /// Next sampled kOk completion; false once every sampled request has
  /// completed and was taken.
  bool NextSampled(size_t* request) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !ready_.empty() || sampled_outstanding_ == 0; });
    if (ready_.empty()) return false;
    *request = ready_.front();
    ready_.pop_front();
    return true;
  }

  /// Blocks until every request has completed.
  void WaitAll() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return outstanding_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t outstanding_;
  size_t sampled_outstanding_;
  std::deque<size_t> ready_;
};

/// Per-request record, written once by its completion callback.
struct Slot {
  int64_t sched_ns = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  uint64_t root_span = 0;
  size_t rank = 0;
  serve::StatusCode status = serve::StatusCode::kOk;
  bool stale = false;
  bool shed = false;
  double queue_s = 0.0;
  double latency_s = 0.0;
};

struct Retained {
  bool ok = false;
  index::QueryResult result;
  serve::SnapshotPtr snapshot;
};

/// The catalog. What sets a request's cost is fixed per zipf rank r
/// (0 = hottest): τ is grid value r % 8 of a fixed grid over [500, 3000] m,
/// k = 2 + 7r mod 19, ranks with r % 5 == 3 use the FM sketch and ranks
/// with r % 5 == 4 carry existing services. So the work each rank brings
/// is the same for every seed; the seed picks ψ, the existing services,
/// the rank of every request, the arrival times and the update stream.
std::vector<CatalogEntry> MakeCatalog(util::Rng& rng, size_t num_sites) {
  std::vector<CatalogEntry> catalog(kCatalog);
  for (size_t r = 0; r < kCatalog; ++r) {
    Engine::QuerySpec& spec = catalog[r].spec;
    spec.tau_m = 500.0 + 2500.0 * (static_cast<double>(r % kTaus) + 0.5) / kTaus;
    spec.k = 2 + static_cast<uint32_t>((7 * r) % 19);
    switch (rng.UniformInt(4)) {
      case 0: spec.psi = tops::PreferenceFunction::Binary(); break;
      case 1: spec.psi = tops::PreferenceFunction::Linear(); break;
      case 2: spec.psi = tops::PreferenceFunction::Exponential(3.0); break;
      default: spec.psi = tops::PreferenceFunction::ConvexProbability(2.0); break;
    }
    if (r % 5 == 3) {
      spec.psi = tops::PreferenceFunction::Binary();
      spec.use_fm = true;
    } else if (r % 5 == 4) {
      const uint64_t count = 1 + rng.UniformInt(4);
      for (uint64_t i = 0; i < count; ++i) {
        spec.existing_services.push_back(
            static_cast<tops::SiteId>(rng.UniformInt(num_sites)));
      }
    }
    if (r % 4 == 0) {
      catalog[r].priority = serve::Priority::kNormal;
      catalog[r].staleness = serve::StalenessPolicy::Fresh();
    } else {
      catalog[r].priority = serve::Priority::kInteractive;
      catalog[r].staleness = serve::StalenessPolicy::AllowStaleVersion(2);
    }
  }
  return catalog;
}

std::vector<double> ZipfCdf(size_t n, double s) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

/// `count` arrival offsets (seconds) uniform in [from, from + span), sorted.
void AddArrivals(util::Rng& rng, size_t count, double from, double span,
                 std::vector<double>* out) {
  std::vector<double> t(count);
  for (double& x : t) x = from + rng.Uniform() * span;
  std::sort(t.begin(), t.end());
  out->insert(out->end(), t.begin(), t.end());
}

}  // namespace

Result RunServeChurn(const RunConfig& cfg) {
  Result result;
  ServingWorld sw = SetUpServing(cfg, &result);
  serve::NetClusServer& server = *sw.server;
  const Engine& engine = *sw.engine;
  const size_t num_sites = engine.sites().size();

  util::Rng rng(cfg.seed);
  const std::vector<CatalogEntry> catalog = MakeCatalog(rng, num_sites);
  const double rate = cfg.rate > 0.0 ? cfg.rate : kServeRate;
  const size_t timed_count = std::max<size_t>(
      kMinRequests, static_cast<size_t>(std::llround(rate * cfg.seconds)));
  const double window_s = static_cast<double>(timed_count) / rate;
  const size_t warm_count = static_cast<size_t>(std::llround(rate * kWarmupSeconds));
  std::vector<double> arrivals;
  AddArrivals(rng, warm_count, 0.0, kWarmupSeconds, &arrivals);
  AddArrivals(rng, timed_count, kWarmupSeconds, window_s, &arrivals);
  const std::vector<double> cdf = ZipfCdf(kCatalog, kZipfS);
  std::vector<Slot> slots(arrivals.size());
  for (Slot& slot : slots) {
    slot.rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), rng.Uniform()) - cdf.begin());
    slot.rank = std::min(slot.rank, kCatalog - 1);
  }
  // The replay sample: seeded, from the early warm-up arrivals.
  const size_t early = static_cast<size_t>(
      std::lower_bound(arrivals.begin(), arrivals.begin() + warm_count,
                       kReplayBeforeSeconds) -
      arrivals.begin());
  const size_t replay_count = std::min(kReplaySample, early);
  std::vector<int> retain_of(arrivals.size(), -1);
  std::vector<Retained> retained(replay_count);
  for (size_t j = 0; j < replay_count; ++j) {
    size_t i = rng.UniformInt(early);
    while (retain_of[i] >= 0) i = rng.UniformInt(early);
    retain_of[i] = static_cast<int>(j);
  }
  UpdateStream stream(engine, cfg.seed + 1, 256);
  const double end_s = kWarmupSeconds + window_s;
  const size_t update_count = static_cast<size_t>(end_s * kUpdateRate);

  SpanRecorder spans;
  Completions completions(arrivals.size(), replay_count);
  const int64_t start_ns = NowNs() + 50'000'000;  // threads start first
  const auto at = [&](double offset_s) {
    return start_ns + static_cast<int64_t>(offset_s * 1e9);
  };

  // Request generator. Odd requests are traced in a traced run.
  std::thread sender([&] {
    for (size_t i = 0; i < arrivals.size(); ++i) {
      Slot& slot = slots[i];
      slot.sched_ns = at(arrivals[i]);
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(slot.sched_ns)));
      const CatalogEntry& entry = catalog[slot.rank];
      serve::Request request;
      request.spec = entry.spec;
      request.priority = entry.priority;
      request.staleness = entry.staleness;
      const bool traced = cfg.trace && i % 2 == 1;
      Retained* keep = retain_of[i] >= 0 ? &retained[retain_of[i]] : nullptr;
      slot.send_ns = NowNs();
      if (traced) slot.root_span = spans.NextId();
      server.SubmitAsync(std::move(request), [&, i, keep, traced](serve::Response r) {
        Slot& s = slots[i];
        s.done_ns = NowNs();
        s.status = r.status;
        s.stale = r.stale;
        s.shed = r.shed;
        s.queue_s = r.queue_seconds;
        s.latency_s = r.latency_seconds;
        if (keep != nullptr && r.status == serve::StatusCode::kOk) {
          keep->ok = true;
          keep->result = std::move(r.result);
          keep->snapshot = std::move(r.snapshot);
        }
        if (traced) {
          spans.AddWithId(s.root_span, "request", s.sched_ns, s.done_ns, 0, i);
        }
        completions.Done(keep != nullptr, keep != nullptr && keep->ok, i);
      });
      if (traced) {
        spans.Add("serve.submit_async", slot.send_ns, NowNs(), slot.root_span, i);
      }
    }
  });

  // Update generator: one op per period, Mutate then Flush.
  std::vector<UpdateStep> steps(update_count);
  std::vector<int64_t> update_sched(update_count);
  std::thread updater([&] {
    for (size_t k = 0; k < update_count; ++k) {
      update_sched[k] = at(static_cast<double>(k) / kUpdateRate);
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(update_sched[k])));
      steps[k] = ApplyUpdate(&server, &stream);
      if (cfg.trace && k % 2 == 1) {
        const UpdateStep& s = steps[k];
        const uint64_t root = spans.NextId();
        spans.Add("serve.mutate", s.start_ns, s.mutated_ns, root, k);
        spans.Add("serve.flush", s.mutated_ns, s.flushed_ns, root, k);
        spans.AddWithId(root, "update", s.start_ns, s.flushed_ns, 0, k);
      }
    }
  });

  // Gate: sampled kOk responses of the warm-up replay bit-identically on
  // the snapshot that served them. Replayed as they arrive, so the
  // benchmark holds at most a few snapshots alive beyond what the server
  // itself retains, and before the timed window, so the replays take no
  // CPU from the measured requests.
  uint64_t compared = 0, equal = 0;
  size_t i = 0;
  while (completions.NextSampled(&i)) {
    Retained& keep = retained[retain_of[i]];
    if (keep.snapshot == nullptr) continue;
    ++compared;
    if (SameAnswer(Replay(*keep.snapshot, catalog[slots[i].rank].spec), keep.result)) {
      ++equal;
    }
    keep.snapshot.reset();
  }
  const double replay_lead_s = (at(kWarmupSeconds) - NowNs()) / 1e9;
  std::this_thread::sleep_until(
      Clock::time_point(std::chrono::nanoseconds(at(kWarmupSeconds))));
  const serve::ServerStats stats_start = server.stats();
  sender.join();
  updater.join();
  completions.WaitAll();
  const serve::ServerStats stats_end = server.stats();
  const double peak_rss_mb = util::ReadVmHwmBytes() / (1024.0 * 1024.0);

  // Timed-window samples.
  std::vector<double> latency_ms, late_ms, queue_ms, service_ms, lat_traced,
      lat_plain;
  uint64_t ok = 0, stale = 0, shed = 0;
  int64_t last_done = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    const Slot& s = slots[i];
    late_ms.push_back(NsToMs(s.send_ns - s.sched_ns));
    if (i < warm_count) continue;
    if (s.shed) ++shed;
    if (s.status != serve::StatusCode::kOk) continue;
    ++ok;
    if (s.stale) ++stale;
    const double ms = NsToMs(s.done_ns - s.sched_ns);
    latency_ms.push_back(ms);
    (i % 2 == 1 ? lat_traced : lat_plain).push_back(ms);
    queue_ms.push_back(s.queue_s * 1e3);
    service_ms.push_back((s.latency_s - s.queue_s) * 1e3);
    last_done = std::max(last_done, s.done_ns);
  }
  std::vector<double> publish_ms, update_late_ms;
  uint64_t applied = 0, issued = 0;
  for (size_t k = 0; k < steps.size(); ++k) {
    update_late_ms.push_back(NsToMs(steps[k].start_ns - update_sched[k]));
    if (static_cast<double>(k) / kUpdateRate < kWarmupSeconds) continue;
    ++issued;
    if (steps[k].accepted) ++applied;
    publish_ms.push_back(NsToMs(steps[k].flushed_ns - steps[k].start_ns));
  }
  result.attempted = timed_count;
  result.failed = timed_count - ok;

  // Generator hygiene.
  const double send_late_p99 = Quantile(late_ms, 0.99);
  const double update_late_p99 = Quantile(update_late_ms, 0.99);
  const double send_limit = kMaxLateShare * 1e3 / rate;
  const double update_limit = kMaxLateShare * 1e3 / kUpdateRate;
  if (send_late_p99 > send_limit || update_late_p99 > update_limit) {
    result.valid = false;
    char why[200];
    std::snprintf(why, sizeof(why),
                  "generator lateness p99: requests %.2f ms (limit %.2f), "
                  "updates %.2f ms (limit %.2f)",
                  send_late_p99, send_limit, update_late_p99, update_limit);
    result.invalid_reason = why;
  }

  result.AddGate("served_answers_replay_bit_identical",
                 compared > 0 && equal == compared,
                 std::to_string(equal) + "/" + std::to_string(compared) +
                     " sampled responses equal a replay on their snapshot");

  server.Shutdown();
  const serve::SnapshotPtr final_snap = server.snapshot();
  AddSnapshotUtility(*final_snap, cfg.threads,
                     UtilitySpecs(cfg.seed + 3, final_snap->sites().size()), &result);

  const double timed_span_s =
      last_done > 0 ? (last_done - at(kWarmupSeconds)) / 1e9 : window_s;
  result.Add("peak_rss_mb", peak_rss_mb, "MB", 1, Kind::kEndToEnd);
  result.Add("ok_frac", static_cast<double>(ok) / timed_count, "ratio", timed_count,
             Kind::kEndToEnd);
  result.Add("latency_p50_ms", Quantile(latency_ms, 0.5), "ms", latency_ms.size(),
             Kind::kEndToEnd);
  result.Add("latency_p99_ms", Quantile(latency_ms, 0.99), "ms", latency_ms.size(),
             Kind::kEndToEnd);
  result.Add("throughput_per_s", ok / timed_span_s, "1/s", ok, Kind::kEndToEnd);
  result.Add("throughput_qps", ok / timed_span_s, "1/s", ok, Kind::kInfo);
  result.Add("offered_rate_per_s", rate, "1/s", timed_count, Kind::kInfo);
  // Positive: the replays ended this long before the timed window opened.
  result.Add("replay_lead_s", replay_lead_s, "s", compared, Kind::kInfo);
  result.Add("publish_p50_ms", Quantile(publish_ms, 0.5), "ms", publish_ms.size(),
             Kind::kInfo);
  result.Add("publish_p95_ms", Quantile(publish_ms, 0.95), "ms", publish_ms.size(),
             Kind::kInfo);
  result.Add("update_ops_per_s", applied / window_s, "1/s", applied, Kind::kInfo);
  result.Add("update_ok_frac", issued ? static_cast<double>(applied) / issued : 0.0,
             "ratio", issued, Kind::kInfo);
  // Generator lateness judges the run; in a traced run it is a per-layer
  // metric.
  const Kind lateness_kind = cfg.trace ? Kind::kLayer : Kind::kInfo;
  result.Add("bench.send_late_p99_ms", send_late_p99, "ms", late_ms.size(),
             lateness_kind);
  result.Add("bench.update_late_p99_ms", update_late_p99, "ms",
             update_late_ms.size(), lateness_kind);
  if (!cfg.trace) return result;

  const auto layer = [&](const char* name, double value, const char* unit,
                         uint64_t n) { result.Add(name, value, unit, n, Kind::kLayer); };
  layer("serve.queue_ms_p50", Quantile(queue_ms, 0.5), "ms", queue_ms.size());
  layer("serve.queue_ms_p99", Quantile(queue_ms, 0.99), "ms", queue_ms.size());
  layer("serve.service_ms_p50", Quantile(service_ms, 0.5), "ms", service_ms.size());
  layer("serve.stale_frac", ok ? static_cast<double>(stale) / ok : 0.0, "ratio", ok);
  layer("serve.shed_frac", static_cast<double>(shed) / timed_count, "ratio", timed_count);
  AddServerLayers(stats_start, stats_end, timed_count, publish_ms, &result);
  const double plain = Median(lat_plain);
  layer("bench.trace_overhead_frac", plain > 0.0 ? Median(lat_traced) / plain - 1.0 : 0.0,
        "ratio", lat_traced.size());
  AddNetclusProbes(*final_snap, stream.free_nodes_left(), cfg.seed + 5, &spans, &result);
  FinishTrace(cfg, spans, &result);
  return result;
}

}  // namespace perfbench
