// Micro-benchmarks (google-benchmark): per-operation costs of the building
// blocks — space-filling curves, PEB key generation, B+-tree operations,
// buffer pool hits, policy compatibility, and end-to-end index updates.
//
// After the google-benchmark suite, these cells always run:
//  * "range-scan cell": a window-query batch against a Bx-tree under the
//    paper's 50-page buffer, reporting the LeafCursor scan's I/O, probe,
//    descent and hop counts.
//  * "pknn cell": the same PkNN batch against the PEB-tree and against the
//    paper's baseline, the Bx-tree with policy filtering (Section 4), each
//    on its own 50-page pool. Answers must be bit-identical (the binary
//    aborts otherwise); CI fails when the PEB-tree stops beating the
//    baseline's wall-clock or its fetch, descent or round counts exceed
//    their ceilings.
//  * "update interference cell": closed-loop PRQ latency while a paced
//    update stream lands concurrently, against the same engine and query
//    set with no writer running. Settled answers of the two arms must be
//    bit-identical, and CI fails when the stream arm's query p99 exceeds a
//    fixed multiple of the quiet arm's.
//  * "reopen cell": cold ShardedPebEngine::Open() of a checkpointed file
//    (superblock manifest + tree attach, no per-object work) vs a full
//    in-memory rebuild of the same dataset. Answers must be bit-identical
//    and CI fails when the cold open stops beating the rebuild.
// `--json <path>` records the cells in BENCH_micro.json so the reductions
// are part of the perf trajectory.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "btree/btree.h"
#include "bxtree/filtering_index.h"
#include "engine/sharded_engine.h"
#include "peb/peb_tree.h"
#include "btree/btree_traits.h"
#include "bxtree/bxtree.h"
#include "common/rng.h"
#include "motion/uniform_generator.h"
#include "motion/update_stream.h"
#include "peb/peb_key.h"
#include "policy/compatibility.h"
#include "spatial/hilbert.h"
#include "spatial/zcurve.h"
#include "spatial/zrange.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "telemetry/metrics.h"

namespace peb {
namespace {

void BM_ZEncode(benchmark::State& state) {
  Rng rng(1);
  uint32_t x = static_cast<uint32_t>(rng.Next64());
  uint32_t y = static_cast<uint32_t>(rng.Next64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ZEncode(x, y, 21));
    x += 7;
    y += 13;
  }
}
BENCHMARK(BM_ZEncode);

void BM_ZDecode(benchmark::State& state) {
  uint64_t z = 0x12345678ABCDull;
  uint32_t x, y;
  for (auto _ : state) {
    ZDecode(z, 21, &x, &y);
    benchmark::DoNotOptimize(x + y);
    z += 0x9E37;
  }
}
BENCHMARK(BM_ZDecode);

void BM_HilbertEncode(benchmark::State& state) {
  Rng rng(2);
  uint32_t x = static_cast<uint32_t>(rng.Next64()) & 0x1FFFFF;
  uint32_t y = static_cast<uint32_t>(rng.Next64()) & 0x1FFFFF;
  for (auto _ : state) {
    benchmark::DoNotOptimize(HilbertEncode(x, y, 21));
    x = (x + 7) & 0x1FFFFF;
    y = (y + 13) & 0x1FFFFF;
  }
}
BENCHMARK(BM_HilbertEncode);

void BM_WindowDecomposition(benchmark::State& state) {
  GridMapper grid(1000.0, 10);
  Rect window{{300, 300}, {300.0 + static_cast<double>(state.range(0)),
               300.0 + static_cast<double>(state.range(0))}};
  ZRangeOptions opts;
  opts.max_intervals = 32;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ZIntervalsForWindow(grid, window, opts));
  }
}
BENCHMARK(BM_WindowDecomposition)->Arg(100)->Arg(300)->Arg(600);

void BM_PebKeyGeneration(benchmark::State& state) {
  PebKeyLayout layout;
  Rng rng(3);
  uint32_t partition = 1;
  for (auto _ : state) {
    uint32_t qsv = static_cast<uint32_t>(rng.Next64() & 0x3FFFFFF);
    uint64_t zv = rng.Next64() & 0xFFFFF;
    benchmark::DoNotOptimize(layout.MakeKey(partition, qsv, zv));
  }
}
BENCHMARK(BM_PebKeyGeneration);

void BM_BTreeInsert(benchmark::State& state) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{1024});
  BTree<U64Traits> tree(&pool);
  Rng rng(4);
  for (auto _ : state) {
    (void)tree.Insert(rng.Next64(), 1);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeLookupHit(benchmark::State& state) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{1024});
  BTree<U64Traits> tree(&pool);
  Rng fill(5);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 100000; ++i) {
    uint64_t k = fill.Next64();
    if (tree.Insert(k, 1).ok()) keys.push_back(k);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Lookup(keys[i % keys.size()]));
    i += 7919;
  }
}
BENCHMARK(BM_BTreeLookupHit);

void BM_BufferPoolHit(benchmark::State& state) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{64});
  auto page = pool.NewPage();
  PageId id = page->id();
  page->Release();
  for (auto _ : state) {
    auto g = pool.FetchPage(id);
    benchmark::DoNotOptimize(g->page());
  }
}
BENCHMARK(BM_BufferPoolHit);

void BM_CompatibilityScore(benchmark::State& state) {
  Lpp a, b;
  a.role = b.role = 1;
  a.locr = {{100, 100}, {600, 700}};
  a.tint = {480, 1020};
  b.locr = {{300, 50}, {900, 500}};
  b.tint = {300, 800};
  CompatibilityOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CompatibilityFromAlpha(ComputeAlpha({&a, 1}, {&b, 1}, opts)));
  }
}
BENCHMARK(BM_CompatibilityScore);

void BM_BxTreeUpdate(benchmark::State& state) {
  UniformGeneratorOptions gen;
  gen.num_objects = 20000;
  gen.stagger_window = 120.0;
  gen.seed = 6;
  Dataset ds = GenerateUniformDataset(gen);
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{256});
  MovingIndexOptions opt;
  BxTree tree(&pool, opt);
  for (const auto& o : ds.objects) (void)tree.Insert(o);
  Rng rng(7);
  Timestamp t = 120.0;
  for (auto _ : state) {
    UserId id = static_cast<UserId>(rng.NextBelow(ds.objects.size()));
    MovingObject o = ds.objects[id];
    t += 0.001;
    o.pos = o.PositionAt(t);
    o.tu = t;
    (void)tree.Update(o);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BxTreeUpdate);

}  // namespace

// ---------------------------------------------------------------------------
// Range-scan cell: the Bx-tree's LeafCursor window scan
// ---------------------------------------------------------------------------

namespace {

struct ScanCellResult {
  IoStats io;
  double wall_ms = 0.0;
  uint64_t probes = 0;
  uint64_t descents = 0;
  uint64_t leaf_hops = 0;
  uint64_t candidates = 0;
};

ScanCellResult RunRangeScanCell(size_t num_objects, size_t num_queries) {
  UniformGeneratorOptions gen;
  gen.num_objects = num_objects;
  gen.stagger_window = 120.0;
  gen.seed = 42;
  Dataset ds = GenerateUniformDataset(gen);

  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{50});  // Paper's buffer budget.
  BxTree tree(&pool, MovingIndexOptions{});
  for (const auto& o : ds.objects) (void)tree.Insert(o);

  ScanCellResult r;
  Rng rng(9);
  Timestamp tq = 120.0;
  pool.ResetStats();
  auto t0 = std::chrono::steady_clock::now();
  for (size_t q = 0; q < num_queries; ++q) {
    Point center{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    Rect window = Rect::CenteredSquare(center, 200.0)
                      .ClampedTo(Rect::Space(1000.0));
    auto res = tree.RangeQuery(window, tq);
    if (!res.ok()) continue;
    r.probes += tree.last_query().range_probes;
    r.descents += tree.last_query().seek_descents;
    r.leaf_hops += tree.last_query().leaf_hops;
    r.candidates += tree.last_query().candidates_examined;
  }
  auto t1 = std::chrono::steady_clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.io = pool.stats();
  return r;
}

}  // namespace

eval::Json RunAndReportScanCell() {
  size_t num_objects = eval::Scaled(60000, 5000);
  size_t num_queries = eval::Scaled(200, 20);
  ScanCellResult r = RunRangeScanCell(num_objects, num_queries);

  std::cout << "\n--- range-scan cell (Bx window batch, " << num_objects
            << " objects, " << num_queries << " queries) ---\n"
            << r.io.logical_fetches << " fetches, " << r.io.physical_reads
            << " reads, " << r.probes << " probes (" << r.descents
            << " descents + " << r.leaf_hops << " hops), "
            << eval::Fmt(r.wall_ms) << " ms\n";

  return eval::Json::Object()
      .Set("num_objects", static_cast<uint64_t>(num_objects))
      .Set("num_queries", static_cast<uint64_t>(num_queries))
      .Set("window_side", 200.0)
      .Set("buffer_pages", 50)
      .Set("io", eval::ToJson(r.io))
      .Set("wall_ms", r.wall_ms)
      .Set("range_probes", r.probes)
      .Set("seek_descents", r.descents)
      .Set("leaf_hops", r.leaf_hops)
      .Set("candidates_examined", r.candidates);
}

// ---------------------------------------------------------------------------
// PkNN cell: PEB-tree vs the Bx-tree + policy-filtering baseline
// ---------------------------------------------------------------------------

namespace {

struct PknnCellResult {
  IoStats io;
  double wall_ms = 0.0;
  uint64_t probes = 0;
  uint64_t descents = 0;
  uint64_t leaf_hops = 0;
  uint64_t candidates = 0;
  uint64_t rounds = 0;
  std::vector<std::vector<Neighbor>> answers;
};

/// Loads the workload's dataset into `index` (which sits on its own
/// 50-page pool) and runs the PkNN batch against it.
PknnCellResult RunPknnCell(const eval::Workload& w,
                           const std::vector<eval::PknnQuery>& queries,
                           PrivacyAwareIndex& index) {
  for (const auto& o : w.dataset().objects) (void)index.Insert(o);

  PknnCellResult r;
  r.answers.reserve(queries.size());
  index.ResetIo();
  auto t0 = std::chrono::steady_clock::now();
  for (const auto& q : queries) {
    QueryStats stats;
    auto res = index.KnnQueryWithStats(q.issuer, q.qloc, q.k, q.tq, &stats);
    if (!res.ok()) {
      std::cerr << "pknn cell query failed: " << res.status().ToString()
                << "\n";
      std::abort();
    }
    r.probes += stats.counters.range_probes;
    r.descents += stats.counters.seek_descents;
    r.leaf_hops += stats.counters.leaf_hops;
    r.candidates += stats.counters.candidates_examined;
    r.rounds += stats.counters.rounds;
    r.answers.push_back(std::move(*res));
  }
  auto t1 = std::chrono::steady_clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.io = index.aggregate_io();
  return r;
}

eval::Json ToJson(const PknnCellResult& r) {
  return eval::Json::Object()
      .Set("io", eval::ToJson(r.io))
      .Set("wall_ms", r.wall_ms)
      .Set("range_probes", r.probes)
      .Set("seek_descents", r.descents)
      .Set("leaf_hops", r.leaf_hops)
      .Set("candidates_examined", r.candidates)
      .Set("rounds", r.rounds);
}

}  // namespace

eval::Json RunAndReportPknnCell() {
  eval::WorkloadParams p;  // Table 1 defaults.
  p.num_users = eval::Scaled(60000, 1000);
  size_t num_queries = eval::Scaled(200, 20);
  eval::Workload w = eval::Workload::Build(p);
  eval::QuerySetOptions q;
  q.count = num_queries;
  auto queries = eval::MakePknnQueries(w, q);

  InMemoryDiskManager peb_disk;
  BufferPool peb_pool(&peb_disk, BufferPoolOptions{50});  // Paper's budget.
  PebTree peb_tree(&peb_pool, eval::PebOptionsFor(p), &w.store(), &w.roles(),
                   w.catalog()->snapshot());
  PknnCellResult peb = RunPknnCell(w, queries, peb_tree);

  InMemoryDiskManager base_disk;
  BufferPool base_pool(&base_disk, BufferPoolOptions{50});
  FilteringIndex baseline(&base_pool, eval::IndexOptionsFor(p), &w.store(),
                          &w.roles(), p.time_domain);
  PknnCellResult base = RunPknnCell(w, queries, baseline);

  // Both indexes must produce bit-identical answers (same uids, same
  // distances). Sort by (distance, uid) first — distances are continuous,
  // so this only normalizes the order of exact ties, which the merges may
  // permute.
  auto normalized = [](std::vector<Neighbor> v) {
    std::sort(v.begin(), v.end(), [](const Neighbor& a, const Neighbor& b) {
      if (a.distance != b.distance) return a.distance < b.distance;
      return a.uid < b.uid;
    });
    return v;
  };
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<Neighbor> want = normalized(base.answers[i]);
    std::vector<Neighbor> got = normalized(peb.answers[i]);
    if (want.size() != got.size()) {
      std::cerr << "pknn cell mismatch at query " << i << ": "
                << want.size() << " vs " << got.size() << " results\n";
      std::abort();
    }
    for (size_t j = 0; j < want.size(); ++j) {
      if (want[j].uid != got[j].uid ||
          want[j].distance != got[j].distance) {
        std::cerr << "pknn cell mismatch at query " << i << " rank " << j
                  << "\n";
        std::abort();
      }
    }
  }

  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  double fetch_ratio = ratio(static_cast<double>(base.io.logical_fetches),
                             static_cast<double>(peb.io.logical_fetches));
  double speedup = ratio(base.wall_ms, peb.wall_ms);
  double nq = static_cast<double>(queries.size());

  std::cout << "\n--- pknn cell (PkNN batch, " << p.num_users << " users, "
            << num_queries << " queries) ---\n"
            << "bx+filter : " << base.io.logical_fetches << " fetches, "
            << base.io.physical_reads << " reads, " << base.probes
            << " probes, " << base.descents << " descents, "
            << eval::Fmt(static_cast<double>(base.rounds) / nq)
            << " rounds/query, " << eval::Fmt(base.wall_ms) << " ms\n"
            << "peb-tree  : " << peb.io.logical_fetches << " fetches, "
            << peb.io.physical_reads << " reads, " << peb.probes
            << " probes, " << peb.descents << " descents, "
            << eval::Fmt(static_cast<double>(peb.rounds) / nq)
            << " rounds/query, " << eval::Fmt(peb.wall_ms) << " ms\n"
            << "results bit-identical; fetch ratio " << eval::Fmt(fetch_ratio)
            << "x, speedup " << eval::Fmt(speedup) << "x\n";

  return eval::Json::Object()
      .Set("num_users", static_cast<uint64_t>(p.num_users))
      .Set("num_queries", static_cast<uint64_t>(num_queries))
      .Set("k", static_cast<uint64_t>(q.k))
      .Set("buffer_pages", 50)
      .Set("baseline", ToJson(base))
      .Set("peb", ToJson(peb))
      .Set("fetch_ratio", fetch_ratio)
      .Set("speedup", speedup);
}

// ---------------------------------------------------------------------------
// A/B telemetry-overhead cell: instrumented vs disabled service PRQ batch
// ---------------------------------------------------------------------------

namespace {

/// Milliseconds one PRQ takes through `svc` (the response is checked).
double TimeTelemetryPrq(service::MovingObjectService& svc,
                        const eval::PrqQuery& q) {
  auto t0 = std::chrono::steady_clock::now();
  service::QueryResponse resp =
      svc.Execute(service::QueryRequest::Prq(q.issuer, q.range, q.tq));
  auto t1 = std::chrono::steady_clock::now();
  if (!resp.ok()) {
    std::cerr << "telemetry cell query failed: " << resp.status.ToString()
              << "\n";
    std::abort();
  }
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// One on/off pair: `passes` runs of the PRQ batch on each side, with the
/// sides interleaved query by query (alternating which goes first), so a
/// change of host speed hits both totals alike. Returns {off_ms, on_ms}.
std::pair<double, double> RunTelemetryPrqPair(
    service::MovingObjectService& svc_off,
    service::MovingObjectService& svc_on,
    const std::vector<eval::PrqQuery>& queries, size_t passes) {
  double off_ms = 0.0, on_ms = 0.0;
  for (size_t pass = 0; pass < passes; ++pass) {
    for (size_t i = 0; i < queries.size(); ++i) {
      if ((i + pass) % 2 == 0) {
        off_ms += TimeTelemetryPrq(svc_off, queries[i]);
        on_ms += TimeTelemetryPrq(svc_on, queries[i]);
      } else {
        on_ms += TimeTelemetryPrq(svc_on, queries[i]);
        off_ms += TimeTelemetryPrq(svc_off, queries[i]);
      }
    }
  }
  return {off_ms, on_ms};
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

/// Measures the telemetry hot-path tax: the same PRQ batch against two
/// identical 4-shard engine services, one fully instrumented (private
/// registry, metrics on), one with TelemetryOptions::Disabled(). Each of
/// kPairs on/off pairs runs the batch on both sides, interleaved query by
/// query, until each side's total is about kBatchMs. The overhead is the
/// median of the per-pair on/off ratios: the interleaving gives both sides
/// of a pair the same host speed, and the median discards the pairs a
/// neighbour's burst hit. CI gates overhead_pct at 2%.
eval::Json RunAndReportTelemetryOverheadCell() {
  eval::WorkloadParams p;  // Table 1 defaults.
  p.num_users = eval::Scaled(40000, 1000);
  size_t num_queries = eval::Scaled(300, 30);
  eval::Workload w = eval::Workload::Build(p);
  eval::QuerySetOptions q;
  q.count = num_queries;
  q.seed = 77;
  auto queries = eval::MakePrqQueries(w, q);

  telemetry::MetricsRegistry registry;  // Private: the cell stays self-contained.
  telemetry::TelemetryOptions on;
  on.registry = &registry;

  // Inline execution (0 engine threads, 0 workers) keeps both sides
  // deterministic: the cell measures instrumentation cost, not scheduling.
  auto engine_on = eval::MakeEngine(w, 4, 0, engine::RouterPolicy::kHashUser,
                                    on);
  auto engine_off = eval::MakeEngine(w, 4, 0, engine::RouterPolicy::kHashUser,
                                     telemetry::TelemetryOptions::Disabled());
  service::ServiceOptions svc_on_opts;
  svc_on_opts.time_domain = p.time_domain;
  svc_on_opts.telemetry = on;
  service::ServiceOptions svc_off_opts;
  svc_off_opts.time_domain = p.time_domain;
  svc_off_opts.telemetry = telemetry::TelemetryOptions::Disabled();
  service::MovingObjectService svc_on(engine_on.get(), &w.store(), &w.roles(),
                                      w.catalog()->snapshot(), svc_on_opts);
  service::MovingObjectService svc_off(engine_off.get(), &w.store(),
                                       &w.roles(), w.catalog()->snapshot(),
                                       svc_off_opts);

  // One untimed pair warms the pools; it also sizes the batch.
  constexpr double kBatchMs = 30.0;
  constexpr int kPairs = 21;
  const double pass_ms =
      RunTelemetryPrqPair(svc_off, svc_on, queries, 1).first;
  const size_t passes = static_cast<size_t>(
      std::max(1.0, std::ceil(kBatchMs / std::max(pass_ms, 1e-3))));

  std::vector<double> off_ms, on_ms, ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    const auto [off, on_side] =
        RunTelemetryPrqPair(svc_off, svc_on, queries, passes);
    off_ms.push_back(off);
    on_ms.push_back(on_side);
    ratios.push_back(off > 0.0 ? on_side / off : 1.0);
  }
  const double overhead_pct = (Median(ratios) - 1.0) * 100.0;
  const double median_off = Median(off_ms);
  const double median_on = Median(on_ms);

  std::cout << "\n--- telemetry overhead cell (4-shard engine service, "
            << p.num_users << " users, " << num_queries << " PRQ x "
            << passes << " passes/batch, median of " << kPairs
            << " paired ratios) ---\n"
            << "disabled    : " << eval::Fmt(median_off) << " ms\n"
            << "instrumented: " << eval::Fmt(median_on) << " ms\n"
            << "overhead    : " << eval::Fmt(overhead_pct, 2) << "%\n";

  return eval::Json::Object()
      .Set("num_users", static_cast<uint64_t>(p.num_users))
      .Set("num_queries", static_cast<uint64_t>(num_queries))
      .Set("passes_per_batch", static_cast<uint64_t>(passes))
      .Set("pairs", static_cast<uint64_t>(kPairs))
      .Set("disabled_ms", median_off)
      .Set("instrumented_ms", median_on)
      .Set("overhead_pct", overhead_pct);
}

// ---------------------------------------------------------------------------
// Update-interference cell: PRQ latency under a concurrent update stream vs
// the same engine with no writer
// ---------------------------------------------------------------------------

namespace {

/// Per-shard delta merge threshold of the cell's engines. With 4 shards
/// and 2048-event batches each shard buffers ~512 records per batch, so a
/// merge fires roughly every 4th batch — most batches publish without any
/// exclusive section at all, and every merge dedups to at most one tree
/// update per user.
constexpr size_t kInterferenceMergeThreshold = 2048;

struct InterferenceArmResult {
  telemetry::Histogram::Snapshot query_ms;      ///< Per-query wall latency.
  telemetry::Histogram::Snapshot lock_hold_ms;  ///< Merge lock holds.
  uint64_t queries = 0;
  uint64_t reps = 0;  ///< Passes over the query set.
  uint64_t batches_during_queries = 0;
  /// Sorted PRQ answers after every batch is applied and the deltas are
  /// merged — compared across the two arms.
  std::vector<std::vector<UserId>> settled_answers;
};

eval::Json ToJson(const InterferenceArmResult& r) {
  return eval::Json::Object()
      .Set("query_p50_ms", r.query_ms.p50)
      .Set("query_p99_ms", r.query_ms.p99)
      .Set("query_max_ms", r.query_ms.max)
      .Set("queries", r.queries)
      .Set("batches_during_queries", r.batches_during_queries)
      .Set("lock_hold_count", r.lock_hold_ms.count)
      .Set("lock_hold_p99_ms", r.lock_hold_ms.p99)
      .Set("lock_hold_max_ms", r.lock_hold_ms.max);
}

/// One arm of the cell: the calling thread reruns the PRQ set closed-loop,
/// timing each query, for at least `min_reps` and at most `max_reps`
/// passes. With `stream` set, a paced writer thread feeds every batch into
/// the engine meanwhile and the loop runs until the writer has drained the
/// whole stream, so the measurement window covers the full update
/// schedule. Without it the engine stays quiet during the loop and
/// applies the batches afterwards. Either way the deltas are then settled,
/// so both arms end in the same state and their answers can be compared
/// bit-for-bit.
InterferenceArmResult RunInterferenceArm(
    const eval::Workload& w, bool stream,
    const std::vector<std::vector<UpdateEvent>>& batches,
    const std::vector<eval::PrqQuery>& queries, size_t min_reps,
    size_t max_reps) {
  telemetry::MetricsRegistry registry;  // Private: the cell stays self-contained.
  engine::EngineOptions opts;
  opts.num_shards = 4;
  opts.num_threads = 0;  // Inline shard tasks: latency is the caller's own.
  opts.buffer_pages = w.params().buffer_pages;
  opts.tree = eval::PebOptionsFor(w.params());
  opts.delta.merge_threshold = kInterferenceMergeThreshold;
  opts.telemetry.registry = &registry;
  engine::ShardedPebEngine engine(opts, &w.store(), &w.roles(),
                                  w.catalog().snapshot());
  Status load = engine.LoadDataset(w.dataset());
  if (!load.ok()) {
    std::cerr << "interference cell load failed: " << load.ToString() << "\n";
    std::abort();
  }

  auto apply = [&engine](const std::vector<UpdateEvent>& batch) {
    Status st = engine.ApplyBatch(batch);
    if (!st.ok()) {
      std::cerr << "interference cell batch failed: " << st.ToString()
                << "\n";
      std::abort();
    }
  };
  std::atomic<bool> writer_done{!stream};
  std::atomic<size_t> applied{0};
  std::thread writer;
  if (stream) {
    writer = std::thread([&] {
      for (const auto& batch : batches) {
        apply(batch);
        applied.fetch_add(1, std::memory_order_relaxed);
        // Paced, not saturating: the cell models a sustained update feed,
        // not a bulk load — the interference under test is the queries'
        // wait on update application, not writer CPU.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      writer_done.store(true, std::memory_order_relaxed);
    });
  }

  telemetry::Histogram query_hist;
  InterferenceArmResult r;
  for (; r.reps < max_reps &&
         (r.reps < min_reps || !writer_done.load(std::memory_order_relaxed));
       ++r.reps) {
    for (const auto& q : queries) {
      auto t0 = std::chrono::steady_clock::now();
      auto res = engine.RangeQueryWithStats(q.issuer, q.range, q.tq,
                                            /*stats=*/nullptr);
      auto t1 = std::chrono::steady_clock::now();
      if (!res.ok()) {
        std::cerr << "interference cell query failed: "
                  << res.status().ToString() << "\n";
        std::abort();
      }
      query_hist.Record(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      ++r.queries;
    }
  }
  r.batches_during_queries = applied.load(std::memory_order_relaxed);
  if (stream) {
    writer.join();
  } else {
    for (const auto& batch : batches) apply(batch);
  }

  r.query_ms = query_hist.Snap();
  // The stream arm's merge holds during the measured window (the quiet arm
  // has none: it merges only while applying the batches afterwards).
  r.lock_hold_ms =
      stream ? registry.histogram("engine.merge.lock_hold_ms")->Snap()
             : telemetry::Histogram::Snapshot{};

  Status settle = engine.MergeDeltas();
  if (!settle.ok()) {
    std::cerr << "interference cell settle failed: " << settle.ToString()
              << "\n";
    std::abort();
  }

  r.settled_answers.reserve(queries.size());
  for (const auto& q : queries) {
    auto res = engine.RangeQueryWithStats(q.issuer, q.range, q.tq,
                                          /*stats=*/nullptr);
    if (!res.ok()) {
      std::cerr << "interference cell settled query failed: "
                << res.status().ToString() << "\n";
      std::abort();
    }
    std::vector<UserId> ans = std::move(*res);
    std::sort(ans.begin(), ans.end());
    r.settled_answers.push_back(std::move(ans));
  }
  return r;
}

}  // namespace

/// Closed-loop PRQ latency while a paced update stream lands concurrently
/// (the stream arm, reported as "delta"), against the same engine
/// configuration and query set with no writer running (the quiet arm, run
/// for as many passes). The quiet arm then applies the same batches; both
/// arms settle and must answer bit-identically. CI gates on the stream
/// arm's query p99 staying within a fixed multiple of the quiet arm's: a
/// query that waits behind update application would blow far past it.
eval::Json RunAndReportUpdateInterferenceCell() {
  eval::WorkloadParams p;  // Table 1 defaults except population: a denser
  p.num_users = eval::Scaled(4000, 500);  // update stream exercises dedup.
  eval::Workload w = eval::Workload::Build(p);

  constexpr size_t kBatchEvents = 2048;
  size_t num_batches = eval::Scaled(160, 40);
  auto stream = eval::CloneUniformUpdateStream(w);
  std::vector<std::vector<UpdateEvent>> batches(num_batches);
  for (auto& b : batches) {
    b.reserve(kBatchEvents);
    for (size_t i = 0; i < kBatchEvents; ++i) b.push_back(stream->Next());
  }

  eval::QuerySetOptions q;
  q.count = eval::Scaled(200, 40);
  q.seed = 123;
  auto queries = eval::MakePrqQueries(w, q);
  // The stream arm reruns the set until the writer drains the stream, so
  // it measures the full update schedule; the bounds only protect against
  // degenerate scheduling.
  constexpr size_t kMinReps = 2;
  constexpr size_t kMaxReps = 2000;

  InterferenceArmResult delta = RunInterferenceArm(
      w, /*stream=*/true, batches, queries, kMinReps, kMaxReps);
  InterferenceArmResult quiet = RunInterferenceArm(
      w, /*stream=*/false, batches, queries, delta.reps, delta.reps);

  // Both arms applied every batch and settled, so they hold identical
  // object states: their answers must be bit-identical.
  for (size_t i = 0; i < queries.size(); ++i) {
    if (quiet.settled_answers[i] != delta.settled_answers[i]) {
      std::cerr << "interference cell mismatch at query " << i << ": "
                << quiet.settled_answers[i].size() << " vs "
                << delta.settled_answers[i].size() << " results\n";
      std::abort();
    }
  }

  double p99_ratio = quiet.query_ms.p99 > 0.0
                         ? delta.query_ms.p99 / quiet.query_ms.p99
                         : 0.0;

  std::cout << "\n--- update interference cell (" << p.num_users << " users, "
            << num_batches << " x " << kBatchEvents << "-event batches, "
            << queries.size() << "-PRQ closed loop) ---\n"
            << "quiet:  query p50 " << eval::Fmt(quiet.query_ms.p50, 3)
            << " / p99 " << eval::Fmt(quiet.query_ms.p99, 3) << " / max "
            << eval::Fmt(quiet.query_ms.max, 3) << " ms over "
            << quiet.queries << " queries\n"
            << "stream: query p50 " << eval::Fmt(delta.query_ms.p50, 3)
            << " / p99 " << eval::Fmt(delta.query_ms.p99, 3) << " / max "
            << eval::Fmt(delta.query_ms.max, 3) << " ms over "
            << delta.queries << " queries, merge lock-hold p99 "
            << eval::Fmt(delta.lock_hold_ms.p99, 3) << " ms ("
            << delta.batches_during_queries << " batches landed)\n"
            << "settled answers bit-identical; stream/quiet query p99 "
            << eval::Fmt(p99_ratio) << "x\n";

  return eval::Json::Object()
      .Set("num_users", static_cast<uint64_t>(p.num_users))
      .Set("batch_events", static_cast<uint64_t>(kBatchEvents))
      .Set("num_batches", static_cast<uint64_t>(num_batches))
      .Set("query_set", static_cast<uint64_t>(queries.size()))
      .Set("merge_threshold",
           static_cast<uint64_t>(kInterferenceMergeThreshold))
      .Set("quiet", ToJson(quiet))
      .Set("delta", ToJson(delta))
      .Set("query_p99_ratio", p99_ratio);
}

// ---------------------------------------------------------------------------
// A/B reopen cell: cold Open() from superblock + WAL vs full rebuild
// ---------------------------------------------------------------------------

namespace {

std::vector<std::vector<UserId>> RunReopenPrqBatch(
    engine::ShardedPebEngine& engine,
    const std::vector<eval::PrqQuery>& queries) {
  std::vector<std::vector<UserId>> answers;
  answers.reserve(queries.size());
  for (const auto& q : queries) {
    auto res = engine.RangeQuery(q.issuer, q.range, q.tq);
    if (!res.ok()) {
      std::cerr << "reopen cell query failed: " << res.status().ToString()
                << "\n";
      std::abort();
    }
    std::vector<UserId> ans = std::move(*res);
    std::sort(ans.begin(), ans.end());
    answers.push_back(std::move(ans));
  }
  return answers;
}

}  // namespace

/// Times bringing an index back after a clean shutdown: Open() re-attaches
/// the shard trees to the checkpointed file (superblock roots, empty WAL —
/// no tree rebuild) vs constructing a fresh engine and re-inserting the
/// whole dataset. Both must answer the PRQ sample bit-identically; CI
/// fails when the cold open stops beating the rebuild.
eval::Json RunAndReportReopenCell() {
  eval::WorkloadParams p;  // Table 1 defaults.
  p.num_users = eval::Scaled(40000, 2000);
  size_t num_queries = eval::Scaled(100, 20);
  const eval::Workload w = eval::Workload::Build(p);
  eval::QuerySetOptions q;
  q.count = num_queries;
  q.seed = 55;
  auto queries = eval::MakePrqQueries(w, q);

  const std::string path = "bench_reopen_cell.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());

  engine::EngineOptions opts;
  opts.num_shards = 4;
  opts.num_threads = 0;
  opts.buffer_pages = p.buffer_pages;
  opts.tree = eval::PebOptionsFor(p);
  opts.durability.path = path;
  opts.durability.checkpoint_on_close = true;

  // Seed the durable file: load, checkpoint on close.
  std::vector<std::vector<UserId>> want;
  {
    engine::ShardedPebEngine engine(opts, &w.store(), &w.roles(),
                                    w.catalog().snapshot());
    Status load = engine.LoadDataset(w.dataset());
    if (!load.ok()) {
      std::cerr << "reopen cell load failed: " << load.ToString() << "\n";
      std::abort();
    }
    want = RunReopenPrqBatch(engine, queries);
  }

  // Cold open: superblock manifest + attach, no per-object work.
  auto t0 = std::chrono::steady_clock::now();
  auto reopened = engine::ShardedPebEngine::Open(opts, &w.store(), &w.roles(),
                                                 w.catalog().snapshot());
  auto t1 = std::chrono::steady_clock::now();
  if (!reopened.ok()) {
    std::cerr << "reopen cell open failed: " << reopened.status().ToString()
              << "\n";
    std::abort();
  }
  double open_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  auto got_open = RunReopenPrqBatch(**reopened, queries);
  reopened->reset();

  // Full rebuild: fresh in-memory engine, every object re-inserted.
  engine::EngineOptions mem_opts = opts;
  mem_opts.durability = {};
  t0 = std::chrono::steady_clock::now();
  engine::ShardedPebEngine rebuilt(mem_opts, &w.store(), &w.roles(),
                                   w.catalog().snapshot());
  Status load = rebuilt.LoadDataset(w.dataset());
  t1 = std::chrono::steady_clock::now();
  if (!load.ok()) {
    std::cerr << "reopen cell rebuild failed: " << load.ToString() << "\n";
    std::abort();
  }
  double rebuild_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  auto got_rebuild = RunReopenPrqBatch(rebuilt, queries);

  for (size_t i = 0; i < queries.size(); ++i) {
    if (want[i] != got_open[i] || want[i] != got_rebuild[i]) {
      std::cerr << "reopen cell mismatch at query " << i << "\n";
      std::abort();
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());

  double speedup = open_ms > 0.0 ? rebuild_ms / open_ms : 0.0;
  std::cout << "\n--- reopen cell (" << p.num_users
            << " users, clean-shutdown file, " << num_queries
            << "-PRQ equivalence sample) ---\n"
            << "cold open   : " << eval::Fmt(open_ms) << " ms\n"
            << "full rebuild: " << eval::Fmt(rebuild_ms) << " ms\n"
            << "answers bit-identical; speedup " << eval::Fmt(speedup)
            << "x\n";

  return eval::Json::Object()
      .Set("num_users", static_cast<uint64_t>(p.num_users))
      .Set("num_queries", static_cast<uint64_t>(num_queries))
      .Set("open_ms", open_ms)
      .Set("rebuild_ms", rebuild_ms)
      .Set("speedup", speedup);
}

}  // namespace peb

int main(int argc, char** argv) {
  // Strip --json <path> before google-benchmark sees the arguments.
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int bargc = static_cast<int>(args.size());
  benchmark::Initialize(&bargc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  peb::eval::Json range_cell = peb::RunAndReportScanCell();
  peb::eval::Json pknn_cell = peb::RunAndReportPknnCell();
  peb::eval::Json telemetry_cell = peb::RunAndReportTelemetryOverheadCell();
  peb::eval::Json interference_cell =
      peb::RunAndReportUpdateInterferenceCell();
  peb::eval::Json reopen_cell = peb::RunAndReportReopenCell();
  if (!json_path.empty()) {
    peb::eval::Json doc =
        peb::eval::Json::Object()
            .Set("bench", "micro")
            .Set("scale", peb::eval::BenchScale())
            .Set("range_scan_cell", std::move(range_cell))
            .Set("pknn_cell", std::move(pknn_cell))
            .Set("telemetry_overhead_cell", std::move(telemetry_cell))
            .Set("update_interference_cell", std::move(interference_cell))
            .Set("reopen_cell", std::move(reopen_cell));
    if (doc.WriteTo(json_path)) {
      std::cout << "wrote " << json_path << "\n";
    }
  }
  return 0;
}
