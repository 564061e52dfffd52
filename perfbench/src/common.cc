#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <unordered_map>

#include "data/datasets.h"
#include "traj/trip_generator.h"
#include "util/float_bits.h"

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// --- result record -----------------------------------------------------------

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kEndToEnd: return "end_to_end";
    case Kind::kLayer: return "per_layer";
    case Kind::kInfo: return "info";
  }
  return "info";
}

}  // namespace

std::string Result::ToJson() const {
  std::ostringstream os;
  os << "{\"workload\": " << JsonString(workload) << ", \"seed\": " << seed
     << ", \"trace\": " << (trace ? 1 : 0) << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"valid\": " << (valid ? "true" : "false")
     << ", \"invalid_reason\": " << JsonString(invalid_reason) << ", \"env\": {";
  for (size_t i = 0; i < env.size(); ++i) {
    os << (i ? ", " : "") << JsonString(env[i].first) << ": "
       << JsonString(env[i].second);
  }
  os << "}, \"gates\": [";
  for (size_t i = 0; i < gates.size(); ++i) {
    os << (i ? ", " : "") << "{\"name\": " << JsonString(gates[i].name)
       << ", \"pass\": " << (gates[i].pass ? "true" : "false")
       << ", \"detail\": " << JsonString(gates[i].detail) << "}";
  }
  os << "], \"metrics\": [";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i ? ", " : "") << "{\"name\": " << JsonString(m.name)
       << ", \"value\": " << JsonNumber(m.value)
       << ", \"unit\": " << JsonString(m.unit) << ", \"samples\": " << m.samples
       << ", \"kind\": \"" << KindName(m.kind) << "\"}";
  }
  os << "]}";
  return os.str();
}

// --- spans ---------------------------------------------------------------------

uint64_t SpanRecorder::NextId() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

uint64_t SpanRecorder::Add(const char* name, int64_t start_ns, int64_t end_ns,
                           uint64_t parent, uint64_t request) {
  const std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  spans_.push_back({name, start_ns, end_ns, id, parent, request});
  return id;
}

void SpanRecorder::AddWithId(uint64_t id, const char* name, int64_t start_ns,
                             int64_t end_ns, uint64_t parent,
                             uint64_t request) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, end_ns, id, parent, request});
}

void SpanRecorder::AddSelfTimes(Result* result) const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Children of one parent are sequential calls, so their durations sum
  // to the covered part of the parent's interval.
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  struct Acc {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Acc> by_name;
  for (const Span& s : spans_) {
    Acc& acc = by_name[s.name];
    const int64_t dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    const int64_t covered = it == child_ns.end() ? 0 : it->second;
    ++acc.count;
    acc.total_ns += dur;
    acc.self_ns += std::max<int64_t>(0, dur - covered);
  }
  for (const auto& [name, acc] : by_name) {
    result->Add("span." + name + ".self_ms", NsToMs(acc.self_ns), "ms",
                acc.count, Kind::kInfo);
    result->Add("span." + name + ".total_ms", NsToMs(acc.total_ns), "ms",
                acc.count, Kind::kInfo);
  }
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": \"" << s.name << "\", \"start_us\": "
        << (s.start_ns - origin) / 1000.0
        << ", \"end_us\": " << (s.end_ns - origin) / 1000.0
        << ", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

// --- data set and engines ---------------------------------------------------

std::unique_ptr<Engine> BuildEngine(uint32_t threads, bool all_sites,
                                    double* build_index_s) {
  const data::Dataset d = data::MakeBeijingLite(kScale);
  const auto site_count = static_cast<size_t>(
      static_cast<double>(d.num_nodes()) * kUpdateSiteShare);
  Engine::Options options;
  options.index.tau_min_m = kTauMinM;
  options.index.tau_max_m = kTauMaxM;
  options.threads = threads;
  auto engine = std::make_unique<Engine>(
      *d.network,
      all_sites ? d.sites : tops::SiteSet::SampleNodes(*d.network, site_count, 42),
      options);
  for (traj::TrajId t = 0; t < d.store->total_count(); ++t) {
    if (d.store->is_alive(t)) engine->AddTrajectory(d.store->trajectory(t).nodes());
  }
  const int64_t t0 = NowNs();
  engine->BuildIndex();
  *build_index_s = (NowNs() - t0) / 1e9;
  return engine;
}

namespace {

/// Nodes without a candidate site, in a seeded order.
std::vector<graph::NodeId> FreeSiteNodes(const Engine& engine, uint64_t seed) {
  std::vector<graph::NodeId> free;
  for (graph::NodeId node = 0;
       node < static_cast<graph::NodeId>(engine.network().num_nodes()); ++node) {
    if (engine.sites().SiteAtNode(node) == tops::kInvalidSite) {
      free.push_back(node);
    }
  }
  util::Rng rng(seed);
  for (size_t i = free.size(); i > 1; --i) {
    std::swap(free[i - 1], free[rng.UniformInt(i)]);
  }
  return free;
}

}  // namespace

// --- query specs ----------------------------------------------------------------

Payloads MakePayloads(size_t num_sites, uint64_t seed) {
  Payloads p;
  for (uint64_t i = 0; i < 4; ++i) {
    p.costs.push_back(tops::DrawNormalCosts(num_sites, 1.0, 0.5, 0.1, seed + i));
    p.capacities.push_back(
        tops::DrawNormalCapacities(num_sites, 60.0, 30.0, seed + 100 + i));
  }
  return p;
}

size_t Deck::Draw(util::Rng& rng) {
  if (next_ == order_.size()) {
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.UniformInt(i)]);
    }
    next_ = 0;
  }
  return order_[next_++];
}

Engine::QuerySpec SpecStream::Next(util::Rng& rng) {
  Engine::QuerySpec spec;
  size_t slot = 0;  // TOPS
  if (mix_ == SpecMix::kCold) {
    const size_t v = variant_.Draw(rng);
    slot = v < 14 ? 0 : (v < 17 ? 1 : 2);
  }
  spec.tau_m = tau_[slot].DrawIn(rng, 500.0, 3000.0);
  spec.k = 2 + static_cast<uint32_t>(k_.Draw(rng));
  switch (psi_.Draw(rng)) {
    case 0: spec.psi = tops::PreferenceFunction::Binary(); break;
    case 1: spec.psi = tops::PreferenceFunction::Linear(); break;
    case 2: spec.psi = tops::PreferenceFunction::Exponential(3.0); break;
    default: spec.psi = tops::PreferenceFunction::ConvexProbability(2.0); break;
  }
  if (slot == 1) {
    spec.variant = exec::QueryVariant::kTopsCost;
    spec.site_costs = payloads_->costs[profile_.Draw(rng)];
    spec.budget = budget_.DrawIn(rng, 2.0, 8.0);
    return spec;
  }
  if (slot == 2) {
    spec.variant = exec::QueryVariant::kTopsCapacity;
    spec.site_capacities = payloads_->capacities[profile_.Draw(rng)];
    return spec;
  }
  const size_t extra = extra_.Draw(rng);
  if (extra < 2) {
    spec.psi = tops::PreferenceFunction::Binary();
    spec.use_fm = true;
  } else if (extra < 4) {
    const uint64_t count = 1 + rng.UniformInt(4);
    for (uint64_t i = 0; i < count; ++i) {
      spec.existing_services.push_back(
          static_cast<tops::SiteId>(rng.UniformInt(num_sites_)));
    }
  }
  return spec;
}

bool ExactComparable(const Engine::QuerySpec& spec) {
  return spec.variant == exec::QueryVariant::kTops && !spec.use_fm &&
         spec.existing_services.empty();
}

bool SameAnswer(const index::QueryResult& a, const index::QueryResult& b) {
  const auto same_doubles = [](const std::vector<double>& x,
                               const std::vector<double>& y) {
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (!util::BitEqual(x[i], y[i])) return false;
    }
    return true;
  };
  return a.selection.sites == b.selection.sites &&
         same_doubles(a.selection.marginal_gains, b.selection.marginal_gains) &&
         util::BitEqual(a.selection.utility, b.selection.utility) &&
         util::BitEqual(a.selection.base_utility, b.selection.base_utility) &&
         a.instance_used == b.instance_used &&
         a.clusters_considered == b.clusters_considered;
}

double UtilityRatio(const Engine& engine,
                    const std::vector<Engine::QuerySpec>& specs,
                    const std::vector<index::QueryResult>& answers,
                    double* min_ratio) {
  double sum = 0.0;
  *min_ratio = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < specs.size(); ++i) {
    const Engine::QuerySpec& spec = specs[i];
    const double netclus = engine.EvaluateExact(answers[i].selection.sites,
                                                spec.tau_m, spec.psi);
    const double greedy =
        engine.ExactGreedy(spec.k, spec.tau_m, spec.psi).utility;
    const double ratio = greedy > 0.0 ? netclus / greedy : 1.0;
    sum += ratio;
    *min_ratio = std::min(*min_ratio, ratio);
  }
  return specs.empty() ? 0.0 : sum / static_cast<double>(specs.size());
}

// --- update stream ---------------------------------------------------------------

UpdateStream::UpdateStream(const Engine& engine, uint64_t seed,
                           size_t held_out)
    : free_(FreeSiteNodes(engine, seed ^ 0x5eed)) {
  const traj::TrajectoryStore& store = engine.store();
  for (traj::TrajId t = 0; t < store.total_count(); ++t) {
    if (store.is_alive(t)) live_.emplace_back(t, store.trajectory(t).nodes());
  }
  util::Rng rng(seed);
  const auto n = static_cast<uint64_t>(engine.network().num_nodes());
  while (outside_.size() < held_out) {
    const auto src = static_cast<graph::NodeId>(rng.UniformInt(n));
    const auto dst = static_cast<graph::NodeId>(rng.UniformInt(n));
    if (src == dst) continue;
    auto path = traj::RoutePerturbed(engine.network(), src, dst, 0.3, rng.Next());
    if (path.size() >= 2) outside_.push_back(std::move(path));
  }
}

UpdateStream::Op UpdateStream::Next() {
  Op op;
  const bool site_turn = ++issued_ % 10 == 0;
  if (site_turn && !free_.empty()) {
    op.kind = Op::Kind::kAddSite;
    op.node = free_.back();
    return op;
  }
  if (add_next_ || live_.empty()) {
    op.kind = Op::Kind::kAddTrajectory;
    op.nodes = outside_.front();
  } else {
    op.kind = Op::Kind::kRemoveTrajectory;
    op.traj = live_.front().first;
  }
  return op;
}

void UpdateStream::Commit(const Op& op, bool accepted, traj::TrajId assigned) {
  if (!accepted) return;
  switch (op.kind) {
    case Op::Kind::kAddSite:
      free_.pop_back();
      ++site_adds_;
      break;
    case Op::Kind::kAddTrajectory:
      live_.emplace_back(assigned, std::move(outside_.front()));
      outside_.pop_front();
      ++traj_adds_;
      add_next_ = false;
      break;
    case Op::Kind::kRemoveTrajectory:
      outside_.push_back(std::move(live_.front().second));
      live_.pop_front();
      ++traj_removes_;
      add_next_ = true;
      break;
  }
}

}  // namespace perfbench
