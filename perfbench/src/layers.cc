#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "spatial/zrange.h"
#include "telemetry/trace.h"

namespace perfbench {

namespace {

using peb::QueryStats;
using peb::telemetry::QueryTrace;
using peb::telemetry::TraceBuilder;
using peb::telemetry::TraceSpan;

/// One query run against an index: its wall time and its QueryStats.
struct Call {
  double ms = 0.0;
  QueryStats stats;
};

/// A direct call that fails is a failure of the program, not a figure.
void CheckOk(const peb::Status& s) {
  if (s.ok()) return;
  std::fprintf(stderr, "perfbench: direct layer call failed: %s\n",
               s.ToString().c_str());
  std::exit(1);
}

Call RunPrq(peb::PrivacyAwareIndex& index, const peb::eval::PrqQuery& q,
            TraceBuilder* trace) {
  Call c;
  if (trace != nullptr) {
    c.stats.trace = trace;
    c.stats.trace_span = trace->StartSpan("engine prq");
  }
  const Clock::time_point t0 = Clock::now();
  auto r = index.RangeQueryWithStats(q.issuer, q.range, q.tq, &c.stats);
  c.ms = MsBetween(t0, Clock::now());
  CheckOk(r.status());
  return c;
}

Call RunKnn(peb::PrivacyAwareIndex& index, const peb::eval::PknnQuery& q,
            TraceBuilder* trace) {
  Call c;
  if (trace != nullptr) {
    c.stats.trace = trace;
    c.stats.trace_span = trace->StartSpan("engine pknn");
  }
  const Clock::time_point t0 = Clock::now();
  auto r = index.KnnQueryWithStats(q.issuer, q.qloc, q.k, q.tq, &c.stats);
  c.ms = MsBetween(t0, Clock::now());
  CheckOk(r.status());
  return c;
}

/// Durations of the root's direct children (the engine's shard spans).
std::vector<double> ShardSpans(const QueryTrace& trace) {
  std::vector<double> out;
  for (const TraceSpan& s : trace.spans) {
    if (s.parent == 0) out.push_back(s.dur_ms);
  }
  return out;
}

}  // namespace

void MeasureLayers(peb::eval::Workload& workload,
                   peb::engine::ShardedPebEngine& engine,
                   const QueryCorpus& corpus, size_t calls, MetricSink* out) {
  const size_t n_prq = std::min(calls, corpus.prq.size());
  const size_t n_knn = std::min(calls, corpus.knn.size());

  // --- engine: untraced calls for time, traced calls for the shard spans.
  std::vector<double> engine_prq_ms, engine_knn_ms, fanout_ms, skew;
  peb::QueryCounters prq_counters, knn_counters;
  for (size_t i = 0; i < n_prq; ++i) {
    Call c = RunPrq(engine, corpus.prq[i], nullptr);
    engine_prq_ms.push_back(c.ms);
    prq_counters += c.stats.counters;
  }
  size_t knn_rounds = 0;
  for (size_t i = 0; i < n_knn; ++i) {
    Call c = RunKnn(engine, corpus.knn[i], nullptr);
    engine_knn_ms.push_back(c.ms);
    knn_counters += c.stats.counters;
    knn_rounds += c.stats.counters.rounds;
  }
  auto add_spans = [&](const Call& c, TraceBuilder& builder) {
    const QueryTrace trace = builder.Finish();
    const std::vector<double> shards = ShardSpans(trace);
    if (shards.empty()) return;
    const double slowest = *std::max_element(shards.begin(), shards.end());
    fanout_ms.push_back(c.ms - slowest);
    skew.push_back(Ratio(slowest, Mean(shards)));
  };
  for (size_t i = 0; i < n_prq; ++i) {
    TraceBuilder builder("prq");
    add_spans(RunPrq(engine, corpus.prq[i], &builder), builder);
  }
  for (size_t i = 0; i < n_knn; ++i) {
    TraceBuilder builder("pknn");
    add_spans(RunKnn(engine, corpus.knn[i], &builder), builder);
  }

  // --- peb: the workload's single tree on the same queries.
  std::vector<double> peb_prq_ms, peb_knn_ms;
  for (size_t i = 0; i < n_prq; ++i) {
    peb_prq_ms.push_back(RunPrq(workload.peb(), corpus.prq[i], nullptr).ms);
  }
  for (size_t i = 0; i < n_knn; ++i) {
    peb_knn_ms.push_back(RunKnn(workload.peb(), corpus.knn[i], nullptr).ms);
  }

  // --- spatial: window decomposition of every PRQ window. One call takes
  // microseconds, so each pass is timed as a whole; the median pass counts.
  const peb::MovingIndexOptions idx =
      peb::eval::IndexOptionsFor(workload.params());
  const peb::GridMapper grid(idx.space_side, idx.grid_bits);
  std::vector<double> pass_us;
  size_t intervals = 0;
  for (int pass = 0; pass < 5; ++pass) {
    intervals = 0;
    const Clock::time_point t0 = Clock::now();
    for (const auto& q : corpus.prq) {
      intervals += peb::ZIntervalsForWindow(grid, q.range, idx.zrange).size();
    }
    pass_us.push_back(MsBetween(t0, Clock::now()) * 1000.0 /
                      static_cast<double>(corpus.prq.size()));
  }

  // --- policy: friend-list length of every issuer in the corpus.
  std::vector<double> friends;
  const peb::EncodingSnapshot& enc = workload.encoding();
  for (const auto& q : corpus.prq) {
    friends.push_back(static_cast<double>(enc.FriendsOf(q.issuer).size()));
  }
  for (const auto& q : corpus.knn) {
    friends.push_back(static_cast<double>(enc.FriendsOf(q.issuer).size()));
  }

  peb::QueryCounters all = prq_counters;
  all += knn_counters;
  const double n_all = static_cast<double>(n_prq + n_knn);
  out->Add("engine.prq_ms", Median(engine_prq_ms), "ms");
  out->Add("engine.pknn_ms", Median(engine_knn_ms), "ms");
  out->Add("engine.fanout_ms", Mean(fanout_ms), "ms");
  out->Add("engine.shard_skew", Mean(skew), "ratio");
  out->Add("engine.pknn_rounds_per_query",
           Ratio(static_cast<double>(knn_rounds), static_cast<double>(n_knn)),
           "count");
  out->Add("peb.prq_ms", Median(peb_prq_ms), "ms");
  out->Add("peb.pknn_ms", Median(peb_knn_ms), "ms");
  out->Add("peb.probes_per_prq",
           Ratio(static_cast<double>(prq_counters.range_probes),
                 static_cast<double>(n_prq)),
           "count");
  out->Add("peb.descents_per_query",
           static_cast<double>(all.seek_descents) / n_all, "count");
  out->Add("peb.leaf_hops_per_query",
           static_cast<double>(all.leaf_hops) / n_all, "count");
  out->Add("peb.candidates_per_query",
           static_cast<double>(all.candidates_examined) / n_all, "count");
  out->Add("peb.results_per_candidate",
           Ratio(static_cast<double>(all.results),
                 static_cast<double>(all.candidates_examined)),
           "ratio");
  out->Add("spatial.zdecomp_us", Median(pass_us), "us");
  out->Add("spatial.intervals_per_window",
           Ratio(static_cast<double>(intervals),
                 static_cast<double>(corpus.prq.size())),
           "count");
  out->Add("policy.friends_per_issuer", Mean(friends), "count");
}

}  // namespace perfbench
