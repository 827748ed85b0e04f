#include "open_loop.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>

#include "common/rng.h"

namespace perfbench {

using peb::service::QueryRequest;
using peb::service::QueryResponse;

namespace {

/// Spins until `t`. The generator owns a core of the thread budget;
/// sleeping instead lets a virtual CPU halt, and waking it again has been
/// measured to take up to 10 ms, which would read as lateness of the load
/// rather than of the system under test.
void WaitUntil(Clock::time_point t) {
  while (Clock::now() < t) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();  // Leaves a sibling hyperthread its share.
#endif
  }
}

struct Arrival {
  double due_s;
  bool knn;
  size_t index;
};

std::vector<Arrival> PoissonSchedule(const QueryCorpus& corpus,
                                     const OpenLoopConfig& config) {
  peb::Rng rng(config.seed);
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    // Exponential inter-arrival gap; 1 - u keeps log's argument in (0, 1].
    t += -std::log(1.0 - rng.NextDouble()) / config.rate_qps;
    if (t >= config.duration_s) break;
    const bool knn = (rng.Next64() & 1) != 0;
    const size_t n = knn ? corpus.knn.size() : corpus.prq.size();
    out.push_back({t, knn, static_cast<size_t>(rng.NextBelow(n))});
  }
  return out;
}

QueryRequest MakeRequest(const QueryCorpus& corpus, const Arrival& a,
                         const OpenLoopConfig& config) {
  QueryRequest r;
  if (a.knn) {
    const peb::eval::PknnQuery& q = corpus.knn[a.index];
    r = QueryRequest::Pknn(q.issuer, q.qloc, q.k, q.tq);
  } else {
    const peb::eval::PrqQuery& q = corpus.prq[a.index];
    r = QueryRequest::Prq(q.issuer, q.range, q.tq);
  }
  r.options.trace = config.trace;
  return r;
}

/// p99 of both kinds within `slo_ms` and no growing backlog. A backlog
/// grows when it gains more than half a limit's worth of arrivals (at
/// least two per worker): a preempted virtual CPU queues a few
/// milliseconds of arrivals, an overload keeps adding them.
bool MeetsSlo(const OpenLoopResult& result, double rate_qps, double slo_ms,
              size_t workers) {
  if (result.failed() > 0) return false;
  const double prq_p99 = Quantile(result.Field(&QuerySample::latency_ms, 0),
                                  0.99);
  const double knn_p99 = Quantile(result.Field(&QuerySample::latency_ms, 1),
                                  0.99);
  const double slack = std::max(2.0 * static_cast<double>(workers),
                                rate_qps * slo_ms / 2000.0);
  const bool grew = result.BacklogGrew(slack);
  const bool pass = prq_p99 <= slo_ms && knn_p99 <= slo_ms && !grew;
  std::fprintf(stderr,
               "perfbench: trial %.0f qps: p99 PRQ %.2f ms, PkNN %.2f ms, "
               "backlog %s: %s\n",
               rate_qps, prq_p99, knn_p99, grew ? "grew" : "steady",
               pass ? "pass" : "fail");
  return pass;
}

}  // namespace

std::vector<double> OpenLoopResult::Field(double QuerySample::*field,
                                          int kind) const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const QuerySample& s : samples) {
    if (kind < 0 || s.knn == (kind == 1)) out.push_back(s.*field);
  }
  return out;
}

double OpenLoopResult::WindowedQuantile(double QuerySample::*field, int kind,
                                        double q, size_t windows) const {
  if (samples.empty()) return 0.0;
  const double span = samples.back().submit_s + 1e-9;
  std::vector<std::vector<double>> slices(windows);
  for (const QuerySample& s : samples) {
    if (kind >= 0 && s.knn != (kind == 1)) continue;
    const auto w = static_cast<size_t>(s.submit_s / span *
                                       static_cast<double>(windows));
    slices[std::min(w, windows - 1)].push_back(s.*field);
  }
  std::vector<double> per_window;
  for (const auto& slice : slices) {
    if (!slice.empty()) per_window.push_back(Quantile(slice, q));
  }
  return Median(per_window);
}

std::vector<double> OpenLoopResult::Reads(int kind) const {
  std::vector<double> out;
  for (const QuerySample& s : samples) {
    if (s.knn == (kind == 1)) {
      out.push_back(static_cast<double>(s.io.physical_reads));
    }
  }
  return out;
}

size_t OpenLoopResult::failed() const {
  size_t n = 0;
  for (const QuerySample& s : samples) n += s.ok ? 0 : 1;
  return n;
}

bool OpenLoopResult::BacklogGrew(double slack) const {
  if (samples.size() < 8) return false;
  std::vector<double> done = Field(&QuerySample::done_s, -1);
  std::sort(done.begin(), done.end());
  // Outstanding at each submission = submitted so far - completed so far.
  std::vector<double> outstanding;
  outstanding.reserve(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    const auto completed = static_cast<size_t>(
        std::upper_bound(done.begin(), done.end(), samples[i].submit_s) -
        done.begin());
    outstanding.push_back(static_cast<double>(i + 1) -
                          static_cast<double>(completed));
  }
  const size_t q = outstanding.size() / 4;
  const std::vector<double> first(outstanding.begin(),
                                  outstanding.begin() + q);
  const std::vector<double> last(outstanding.end() - q, outstanding.end());
  return Mean(last) > Mean(first) + slack;
}

OpenLoopResult RunOpenLoop(peb::service::MovingObjectService& svc,
                           const QueryCorpus& corpus,
                           const OpenLoopConfig& config) {
  const std::vector<Arrival> schedule = PoissonSchedule(corpus, config);
  std::vector<std::future<QueryResponse>> futures;
  std::vector<QueryRequest> requests;
  futures.reserve(schedule.size());
  requests.reserve(schedule.size());
  OpenLoopResult result;
  result.samples.resize(schedule.size());

  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& a = schedule[i];
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(a.due_s));
    WaitUntil(due);
    requests.push_back(MakeRequest(corpus, a, config));
    const Clock::time_point submitted = Clock::now();
    futures.push_back(svc.Submit(requests.back()));
    QuerySample& s = result.samples[i];
    s.knn = a.knn;
    s.late_ms = MsBetween(due, submitted);
    s.submit_s = SecondsBetween(start, submitted);
  }

  size_t prq_seen = 0;
  size_t knn_seen = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    QueryResponse r = futures[i].get();
    QuerySample& s = result.samples[i];
    s.ok = r.ok();
    s.queue_ms = r.queue_ms;
    s.exec_ms = r.exec_ms;
    s.latency_ms = s.late_ms + r.queue_ms + r.exec_ms;
    s.done_s = s.submit_s + (r.queue_ms + r.exec_ms) / 1000.0;
    s.counters = r.counters;
    s.io = r.io;
    if (!r.trace.empty()) result.traces.push_back(std::move(r.trace));
    const size_t every = s.knn ? config.keep_knn_every : config.keep_prq_every;
    const size_t seen = s.knn ? knn_seen++ : prq_seen++;
    if (every > 0 && seen % every == 0) {
      result.kept.push_back({requests[i], std::move(r)});
    }
  }
  return result;
}

CapacityResult SearchCapacity(peb::service::MovingObjectService& svc,
                              const QueryCorpus& corpus, double lo_qps,
                              double hi_qps, double resolution,
                              size_t max_trials, double trial_s,
                              double slo_ms, size_t workers, uint64_t seed) {
  CapacityResult out;
  double lo = lo_qps;
  double hi = hi_qps;
  while (out.trials < max_trials && hi / lo > 1.0 + resolution) {
    const double rate = std::sqrt(lo * hi);
    OpenLoopConfig trial;
    trial.rate_qps = rate;
    trial.duration_s = trial_s;
    trial.seed = seed + out.trials;
    const OpenLoopResult r = RunOpenLoop(svc, corpus, trial);
    out.attempted += r.samples.size();
    out.failed += r.failed();
    (MeetsSlo(r, rate, slo_ms, workers) ? lo : hi) = rate;
    ++out.trials;
  }
  out.max_qps = lo;
  return out;
}

}  // namespace perfbench
