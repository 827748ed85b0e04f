// Open-loop Poisson load generator over MovingObjectService::Submit, and
// the capacity search built on it.
//
// Arrivals follow a Poisson process at a fixed offered rate, independent of
// how fast the service answers (independent users, not waiting callers).
// Each request is timed from its DUE time, so a stall of the service or of
// the generator itself counts against every request it delays; how late
// the generator ran is reported separately. The generator is one thread;
// completion times come from each response's own queue/exec timing, so no
// extra collector thread competes for the cores.
#pragma once

#include <cstdint>
#include <vector>

#include "common.h"
#include "eval/runner.h"
#include "service/service.h"

namespace perfbench {

/// The queries an open loop draws from, 50/50 PRQ/PkNN.
struct QueryCorpus {
  std::vector<peb::eval::PrqQuery> prq;
  std::vector<peb::eval::PknnQuery> knn;
};

struct OpenLoopConfig {
  double rate_qps = 0.0;
  double duration_s = 0.0;
  /// Seeds the arrival times, the PRQ/PkNN coin and the query picks; two
  /// phases with one seed offer the identical request sequence.
  uint64_t seed = 0;
  /// Force RequestOptions::trace on every request.
  bool trace = false;
  /// Keep every Nth answer of each kind for the baseline check (0 = none).
  size_t keep_prq_every = 0;
  size_t keep_knn_every = 0;
};

/// One request's timing and work, as its response reported them.
struct QuerySample {
  bool knn = false;
  bool ok = true;
  double late_ms = 0.0;     ///< Submit call minus due time.
  double queue_ms = 0.0;    ///< Service queue wait.
  double exec_ms = 0.0;     ///< Service execution.
  double latency_ms = 0.0;  ///< Completion minus due time.
  double submit_s = 0.0;    ///< Since phase start.
  double done_s = 0.0;      ///< Since phase start.
  peb::QueryCounters counters;
  peb::IoStats io;
};

/// An answer kept for the baseline check, with the request behind it.
struct KeptAnswer {
  peb::service::QueryRequest request;
  peb::service::QueryResponse response;
};

struct OpenLoopResult {
  std::vector<QuerySample> samples;
  std::vector<KeptAnswer> kept;
  /// Span trees of traced requests, in submission order.
  std::vector<peb::telemetry::QueryTrace> traces;

  /// Values of `field` over PRQ (kind 0), PkNN (kind 1) or all (kind -1).
  std::vector<double> Field(double QuerySample::*field, int kind) const;
  /// The q-quantile of `field` in each of `windows` equal slices of the
  /// phase (by submission time), then the median of those: a tail figure
  /// that a preempted virtual CPU spoiling one slice does not move.
  double WindowedQuantile(double QuerySample::*field, int kind, double q,
                          size_t windows) const;
  /// Physical page reads of each PRQ (kind 0) or PkNN (kind 1).
  std::vector<double> Reads(int kind) const;
  size_t failed() const;
  /// Whether the outstanding-request count rose over the phase: its mean
  /// over the last quarter of submissions exceeds the first quarter's by
  /// more than `slack` requests.
  bool BacklogGrew(double slack) const;
};

OpenLoopResult RunOpenLoop(peb::service::MovingObjectService& svc,
                           const QueryCorpus& corpus,
                           const OpenLoopConfig& config);

struct CapacityResult {
  double max_qps = 0.0;  ///< Highest rate that met the SLO.
  size_t trials = 0;
  size_t attempted = 0;
  size_t failed = 0;
};

/// Geometric bisection for the highest offered rate meeting the SLO,
/// starting from a rate known to pass (`lo_qps`) and one assumed to fail
/// (`hi_qps`), until hi/lo <= 1 + resolution or `max_trials` trials of
/// `trial_s` seconds each have run.
CapacityResult SearchCapacity(peb::service::MovingObjectService& svc,
                              const QueryCorpus& corpus, double lo_qps,
                              double hi_qps, double resolution,
                              size_t max_trials, double trial_s,
                              double slo_ms, size_t workers, uint64_t seed);

}  // namespace perfbench
