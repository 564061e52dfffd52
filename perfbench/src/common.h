// Shared pieces of the NetClus benchmark: clocks, sample statistics, the
// in-memory span recorder, the metric/gate result record, the dataset and
// engine set-up, and the seeded query-spec and update-op generators.
//
// Everything the workloads feed to the library is generated here from the
// run's seed; the library only ever sees the generated inputs.
#ifndef NETCLUS_PERFBENCH_COMMON_H_
#define NETCLUS_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/engine.h"
#include "netclus/query.h"
#include "util/rng.h"

namespace perfbench {

using namespace netclus;
using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Linear-interpolated quantile (q in [0, 1]) of `v`; sorts a copy.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// Process CPU seconds (user + system, all threads).
double ProcessCpuSeconds();

// --- result record -----------------------------------------------------------

/// Which list a metric belongs to. End-to-end metrics are measured with
/// tracing off; per-layer metrics come from the traced run; info metrics
/// are printed for the reader and never gated.
enum class Kind { kEndToEnd, kLayer, kInfo };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
  Kind kind = Kind::kInfo;
};

struct Gate {
  std::string name;
  bool pass = false;
  std::string detail;
};

struct Result {
  std::string workload;
  uint64_t seed = 0;
  bool trace = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// A run whose own generators fell behind their schedule measures the
  /// generator, not the program: it is reported as invalid, not measured.
  bool valid = true;
  std::string invalid_reason;
  std::vector<Metric> metrics;
  std::vector<Gate> gates;
  std::vector<std::pair<std::string, std::string>> env;

  void Add(std::string name, double value, std::string unit, uint64_t samples,
           Kind kind) {
    metrics.push_back({std::move(name), value, std::move(unit), samples, kind});
  }
  void AddGate(std::string name, bool pass, std::string detail) {
    gates.push_back({std::move(name), pass, std::move(detail)});
  }
  std::string ToJson() const;
};

/// Options shared by every workload, from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for scratch files and span dumps.
  std::string work_dir;
  /// serve-churn offered rate override, requests/s (0 = the fixed rate).
  double rate = 0.0;
  uint32_t threads = 1;  ///< nproc
};

// --- spans ---------------------------------------------------------------------

/// One timed call the benchmark made into a layer. Spans of one request
/// share `request`; `parent` is the enclosing span's id (0 = root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
};

/// In-memory span store; thread-safe appends, written out at exit.
class SpanRecorder {
 public:
  SpanRecorder() { spans_.reserve(1 << 16); }

  /// Records a finished span and returns its id.
  uint64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint64_t parent, uint64_t request);
  /// Reserves an id for a span whose children are recorded before it.
  uint64_t NextId();
  void AddWithId(uint64_t id, const char* name, int64_t start_ns,
                 int64_t end_ns, uint64_t parent, uint64_t request);

  /// Per span name: count, total and self time (duration minus the part
  /// of it covered by child spans), in ms. Appended as info metrics.
  void AddSelfTimes(Result* result) const;
  /// Writes every span as JSON (one object per line inside an array).
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

// --- data set and engines ---------------------------------------------------

inline constexpr double kScale = 0.15;
inline constexpr double kTauMinM = 400.0;
inline constexpr double kTauMaxM = 6000.0;
/// Share of nodes that start as candidate sites in the update workloads;
/// the rest are the pool site adds draw from (every node is a site in the
/// read-only workload, as in the baseline data set).
inline constexpr double kUpdateSiteShare = 0.7;

/// beijing-lite at kScale, engine with `threads`, corpus added, index
/// built (its time in *build_index_s). `all_sites` = every node a
/// candidate site, else kUpdateSiteShare of them.
std::unique_ptr<Engine> BuildEngine(uint32_t threads, bool all_sites,
                                    double* build_index_s);

// --- query specs ----------------------------------------------------------------

/// Cost / capacity payload profiles shared by the specs that need them.
struct Payloads {
  std::vector<std::vector<double>> costs;
  std::vector<std::vector<double>> capacities;
};
Payloads MakePayloads(size_t num_sites, uint64_t seed);

enum class SpecMix {
  kCold,   ///< every variant, incl. cost and capacity payloads
  kServe,  ///< TOPS only (payloads are site-indexed and sites grow)
};

/// A shuffled deck of 0..n-1, reshuffled whenever it runs out, so every n
/// consecutive draws take each value once.
class Deck {
 public:
  explicit Deck(size_t n) : order_(n), next_(n) {
    for (size_t i = 0; i < n; ++i) order_[i] = i;
  }
  size_t Draw(util::Rng& rng);
  /// A value in [lo, hi) from stratum Draw() of n equal strata.
  double DrawIn(util::Rng& rng, double lo, double hi) {
    const double stratum = static_cast<double>(Draw(rng));
    return lo + (hi - lo) * (stratum + rng.Uniform()) /
                    static_cast<double>(order_.size());
  }

 private:
  std::vector<size_t> order_;
  size_t next_;
};

/// Seeded query specs: τ continuous in [500, 3000] m, mixed
/// k, ψ, FM, existing services and, in the cold mix, TOPS-COST and
/// TOPS-CAPACITY. Every property is dealt from a deck (stratified), and
/// each variant has its own τ deck, so any few hundred consecutive specs
/// hold nearly the same mix whatever the seed: the seed changes the
/// specs, not the shape of the workload.
class SpecStream {
 public:
  SpecStream(SpecMix mix, size_t num_sites, const Payloads* payloads)
      : mix_(mix), num_sites_(num_sites), payloads_(payloads) {}

  Engine::QuerySpec Next(util::Rng& rng);

 private:
  SpecMix mix_;
  size_t num_sites_;
  const Payloads* payloads_;
  Deck variant_{20};  ///< cold mix: 14 TOPS, 3 COST, 3 CAPACITY slots
  Deck tau_[3] = {Deck(16), Deck(16), Deck(16)};  ///< per variant
  Deck k_{19};        ///< k = 2..20
  Deck psi_{4};
  Deck extra_{10};    ///< TOPS: 2 FM, 2 existing-services, 6 plain
  Deck budget_{8};
  Deck profile_{4};
};

/// True for a plain TOPS spec that Engine::ExactGreedy can score
/// (no existing services, no FM sketch).
bool ExactComparable(const Engine::QuerySpec& spec);

/// Bit-for-bit equality of the result fields a query answers (selection,
/// gains, utilities, instance, cluster count); timings are ignored.
bool SameAnswer(const index::QueryResult& a, const index::QueryResult& b);

/// NetClus-vs-Inc-Greedy utility ratio over `specs`: each NetClus
/// selection is re-scored by Engine::EvaluateExact and divided by the
/// Engine::ExactGreedy utility on the same engine. Returns the mean ratio
/// and the minimum through `min_ratio`.
double UtilityRatio(const Engine& engine,
                    const std::vector<Engine::QuerySpec>& specs,
                    const std::vector<index::QueryResult>& answers,
                    double* min_ratio);

/// Floor below which `utility_ratio` fails the run's quality gate.
inline constexpr double kUtilityFloor = 0.90;

// --- update stream ---------------------------------------------------------------

/// The sliding-window update stream: each op either adds a held-out
/// trajectory or removes the oldest live one, alternating so the corpus
/// size stays flat, and every tenth op adds a site at a free node while
/// the free-node pool lasts. Removed trajectories rejoin the held-out
/// pool, so the stream can run for any length at a fixed corpus size.
class UpdateStream {
 public:
  UpdateStream(const Engine& engine, uint64_t seed, size_t held_out);

  struct Op {
    enum class Kind { kAddTrajectory, kRemoveTrajectory, kAddSite } kind;
    std::vector<graph::NodeId> nodes;
    traj::TrajId traj = traj::kInvalidTraj;
    graph::NodeId node = graph::kInvalidNode;
  };

  /// The next op; Commit must follow with the id the server assigned to
  /// an added trajectory (ignored for other kinds).
  Op Next();
  void Commit(const Op& op, bool accepted, traj::TrajId assigned);

  /// Op-log totals, for the final-snapshot count gate.
  int64_t traj_adds() const { return traj_adds_; }
  int64_t traj_removes() const { return traj_removes_; }
  int64_t site_adds() const { return site_adds_; }
  /// Free nodes not yet claimed by a site add.
  const std::vector<graph::NodeId>& free_nodes_left() const { return free_; }

 private:
  /// Live trajectories, oldest first, with their node sequences so a
  /// removed one can rejoin the held-out pool.
  std::deque<std::pair<traj::TrajId, std::vector<graph::NodeId>>> live_;
  std::deque<std::vector<graph::NodeId>> outside_;
  std::vector<graph::NodeId> free_;  ///< claimed from the back
  uint64_t issued_ = 0;
  bool add_next_ = true;
  int64_t traj_adds_ = 0;
  int64_t traj_removes_ = 0;
  int64_t site_adds_ = 0;
};

}  // namespace perfbench

#endif  // NETCLUS_PERFBENCH_COMMON_H_
