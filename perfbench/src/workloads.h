// The three benchmark workloads and the helpers they share.
#ifndef NETCLUS_PERFBENCH_WORKLOADS_H_
#define NETCLUS_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 5;
/// Requests (or update ops) a run completes at the least, so that at
/// least ten samples lie beyond its p99.
inline constexpr uint64_t kMinRequests = 1000;

Result RunColdQuery(const RunConfig& cfg);
Result RunServeChurn(const RunConfig& cfg);
Result RunIngest(const RunConfig& cfg);

/// Adds the utility gate: the mean NetClus / Inc-Greedy ratio must reach
/// kUtilityFloor.
void AddUtilityGate(Result* result, double ratio, double min_ratio,
                    size_t specs);

/// Traced runs: adds span self times, zero-fills the per-layer metrics
/// the workload does not exercise, and writes the spans to the work dir.
void FinishTrace(const RunConfig& cfg, const SpanRecorder& spans,
                 Result* result);

}  // namespace perfbench

#endif  // NETCLUS_PERFBENCH_WORKLOADS_H_
