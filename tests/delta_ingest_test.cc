// Log-structured ingestion tests. The engine is checked against a
// brute-force model: the object table the test's own events produce, fed
// to testing::BruteForcePrq / BruteForcePknn (tests/test_util.h). PRQ,
// PkNN, GetObject, size, insert/delete status codes and standing-query
// results must all equal the model's, across shard counts, under
// randomized interleavings of update batches, joins/leaves, queries, and
// explicit merges. A concurrency test races a merging test thread against
// a writer, readers and the validator, and runs under the TSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "engine/sharded_engine.h"
#include "eval/runner.h"
#include "eval/workload.h"
#include "peb/continuous.h"
#include "policy/policy_catalog.h"
#include "test_util.h"

namespace peb {
namespace {

using engine::EngineOptions;
using engine::ShardedPebEngine;
using eval::CloneUniformUpdateStream;
using eval::MakePknnQueries;
using eval::MakePrqQueries;
using eval::QuerySetOptions;
using eval::Workload;
using eval::WorkloadParams;

std::unique_ptr<ShardedPebEngine> MakeDeltaEngine(Workload& w, size_t shards,
                                                  size_t merge_threshold,
                                                  size_t hard_cap = 0,
                                                  bool paranoid = true) {
  EngineOptions opts;
  opts.num_shards = shards;
  opts.num_threads = shards == 1 ? 0 : 4;
  opts.buffer_pages = w.params().buffer_pages;
  opts.tree = eval::PebOptionsFor(w.params());
  opts.tree.index.paranoid_checks = paranoid;
  opts.delta.merge_threshold = merge_threshold;
  opts.delta.hard_cap = hard_cap;
  auto engine = std::make_unique<ShardedPebEngine>(
      opts, &w.store(), &w.roles(), w.catalog()->snapshot());
  EXPECT_TRUE(engine->LoadDataset(w.dataset()).ok());
  return engine;
}

/// The object table the test's events produce: the reference state every
/// engine answer is checked against.
class Model {
 public:
  explicit Model(const Dataset& initial) {
    for (const MovingObject& o : initial.objects) objects_[o.id] = o;
  }

  void Upsert(const MovingObject& o) { objects_[o.id] = o; }
  void Erase(UserId id) { objects_.erase(id); }
  bool Contains(UserId id) const { return objects_.contains(id); }
  size_t size() const { return objects_.size(); }

  const MovingObject* Find(UserId id) const {
    auto it = objects_.find(id);
    return it == objects_.end() ? nullptr : &it->second;
  }

  Dataset AsDataset() const {
    Dataset ds;
    ds.objects.reserve(objects_.size());
    for (const auto& [id, o] : objects_) ds.objects.push_back(o);
    return ds;
  }

 private:
  std::map<UserId, MovingObject> objects_;
};

std::vector<Neighbor> Normalized(std::vector<Neighbor> v) {
  std::sort(v.begin(), v.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.uid < b.uid;
  });
  return v;
}

void ExpectPrqMatchesModel(const Workload& w, ShardedPebEngine& engine,
                           const Dataset& ds, UserId issuer,
                           const Rect& range, Timestamp tq,
                           const char* context) {
  auto got = engine.RangeQuery(issuer, range, tq);
  ASSERT_TRUE(got.ok()) << context;
  EXPECT_EQ(*got, testing::BruteForcePrq(ds, w.store(), w.roles(), issuer,
                                         range, tq, w.params().time_domain))
      << context << " PRQ issuer " << issuer;
}

/// Every query answer, size() and GetObject of `engine` equal the model's.
/// PkNN distances must be bit-identical: both sides extrapolate the same
/// stored state to tq and measure the same Euclidean distance.
void ExpectMatchesModel(const Workload& w, ShardedPebEngine& engine,
                        const Model& model, uint64_t query_seed,
                        const char* context) {
  const Dataset ds = model.AsDataset();
  QuerySetOptions q;
  q.count = 10;
  q.window_side = 250.0;
  q.seed = query_seed;
  for (const auto& prq : MakePrqQueries(w, q)) {
    ExpectPrqMatchesModel(w, engine, ds, prq.issuer, prq.range, prq.tq,
                          context);
  }
  for (const auto& knn : MakePknnQueries(w, q)) {
    auto got = engine.KnnQuery(knn.issuer, knn.qloc, knn.k, knn.tq);
    ASSERT_TRUE(got.ok()) << context;
    std::vector<Neighbor> want = testing::BruteForcePknn(
        ds, w.store(), w.roles(), knn.issuer, knn.qloc, knn.k, knn.tq,
        w.params().time_domain);
    std::vector<Neighbor> gn = Normalized(*got);
    ASSERT_EQ(gn.size(), want.size()) << context;
    for (size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(gn[r].uid, want[r].uid) << context << " rank " << r;
      EXPECT_EQ(gn[r].distance, want[r].distance) << context << " rank " << r;
    }
  }
  EXPECT_EQ(engine.size(), model.size()) << context;
  for (UserId uid = 0; uid < w.params().num_users; ++uid) {
    auto got = engine.GetObject(uid);
    const MovingObject* want = model.Find(uid);
    ASSERT_EQ(got.ok(), want != nullptr) << context << " GetObject " << uid;
    if (want == nullptr) {
      EXPECT_TRUE(got.status().IsNotFound()) << context;
      continue;
    }
    EXPECT_EQ(got->pos.x, want->pos.x) << context << " user " << uid;
    EXPECT_EQ(got->pos.y, want->pos.y) << context << " user " << uid;
    EXPECT_EQ(got->vel.x, want->vel.x) << context << " user " << uid;
    EXPECT_EQ(got->vel.y, want->vel.y) << context << " user " << uid;
    EXPECT_EQ(got->tu, want->tu) << context << " user " << uid;
  }
}

// ---------------------------------------------------------------------------
// Randomized interleaving vs the brute-force model
// ---------------------------------------------------------------------------

class DeltaIngestModelTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DeltaIngestModelTest, RandomInterleavingMatchesModel) {
  const size_t shards = GetParam();
  WorkloadParams wp;
  wp.num_users = 500;
  wp.policies_per_user = 10;
  wp.buffer_pages = 64;
  wp.grid_bits = 8;
  wp.seed = 29;
  Workload w = Workload::Build(wp);

  // Small merge threshold so the interleaving crosses many merge points;
  // paranoid_checks audits delta/tree agreement inside every one of them.
  auto engine = MakeDeltaEngine(w, shards, /*merge_threshold=*/48);
  Model model(w.dataset());
  auto stream = CloneUniformUpdateStream(w);
  ASSERT_NE(stream, nullptr);

  // Standing queries over the engine, fed in stream order.
  ContinuousQueryMonitor monitor(engine.get(), &w.store(), &w.roles(),
                                 w.catalog()->snapshot());
  Timestamp now = w.params().delta_t_mu;
  struct Standing {
    ContinuousQueryId id = 0;
    UserId issuer = kInvalidUserId;
    Rect range;
    std::set<UserId> folded;  ///< Result rebuilt from the event stream.
  };
  std::vector<Standing> standing;
  {
    QuerySetOptions q;
    q.count = 10;
    q.window_side = 300.0;
    q.seed = 4242;
    for (const auto& prq : MakePrqQueries(w, q)) {
      auto id = monitor.Register(prq.issuer, prq.range, now);
      ASSERT_TRUE(id.ok());
      // Registration seeds the result without events; folding starts here.
      auto seeded = monitor.ResultOf(*id);
      ASSERT_TRUE(seeded.ok());
      standing.push_back({*id, prq.issuer, prq.range,
                          std::set<UserId>(seeded->begin(), seeded->end())});
    }
  }

  // Advance(now) re-evaluates every standing query against the engine; its
  // result must then be the model's PRQ at `now`, the same one-shot PRQ
  // through the engine must agree, and folding the membership events over
  // the previous result must reproduce the current one.
  auto check_standing = [&](const char* context) {
    ASSERT_TRUE(monitor.Advance(now).ok());
    const Dataset ds = model.AsDataset();
    for (const ContinuousQueryEvent& ev : monitor.TakeEvents()) {
      auto it = std::find_if(standing.begin(), standing.end(),
                             [&](const Standing& s) {
                               return s.id == ev.query;
                             });
      ASSERT_NE(it, standing.end()) << context;
      if (ev.entered) {
        EXPECT_TRUE(it->folded.insert(ev.user).second)
            << context << " user " << ev.user << " entered twice";
      } else {
        EXPECT_EQ(it->folded.erase(ev.user), 1u)
            << context << " user " << ev.user << " left without entering";
      }
    }
    for (const Standing& s : standing) {
      auto result = monitor.ResultOf(s.id);
      ASSERT_TRUE(result.ok()) << context;
      EXPECT_EQ(*result,
                testing::BruteForcePrq(ds, w.store(), w.roles(), s.issuer,
                                       s.range, now, wp.time_domain))
          << context << " standing query " << s.id;
      EXPECT_EQ(*result, std::vector<UserId>(s.folded.begin(),
                                             s.folded.end()))
          << context << " standing query " << s.id;
      ExpectPrqMatchesModel(w, *engine, ds, s.issuer, s.range, now, context);
    }
  };
  check_standing("registration");

  std::mt19937 rng(1000 + shards);
  auto random_state = [&](UserId uid) {
    MovingObject obj;
    obj.id = uid;
    obj.pos = {static_cast<double>(rng() % 1000),
               static_cast<double>(rng() % 1000)};
    obj.vel = {1.0, -1.0};
    obj.tu = now;
    return obj;
  };

  for (int round = 0; round < 48; ++round) {
    switch (rng() % 7) {
      case 0:
      case 1: {  // Update batch (upserts: a removed user who updates rejoins).
        const size_t n = 1 + rng() % 96;
        std::vector<UpdateEvent> batch;
        batch.reserve(n);
        for (size_t i = 0; i < n; ++i) batch.push_back(stream->Next());
        ASSERT_TRUE(engine->ApplyBatch(batch).ok());
        for (const UpdateEvent& ev : batch) {
          now = std::max(now, ev.t);
          model.Upsert(ev.state);
          ASSERT_TRUE(monitor.OnUpdate(ev.state, ev.t).ok());
        }
        break;
      }
      case 2: {  // Leave. Prefer a current standing-query member, so the
                 // tombstone shadows a user some answer actually holds.
        std::vector<UserId> members;
        for (const Standing& s : standing) {
          members.insert(members.end(), s.folded.begin(), s.folded.end());
        }
        const UserId uid =
            !members.empty() && rng() % 4 != 0
                ? members[rng() % members.size()]
                : static_cast<UserId>(rng() % wp.num_users);
        Status st = engine->Delete(uid);
        if (model.Contains(uid)) {
          ASSERT_TRUE(st.ok()) << st.ToString();
          model.Erase(uid);
        } else {
          EXPECT_TRUE(st.IsNotFound()) << st.ToString();
        }
        break;
      }
      case 3: {  // Join: sparse insert of any user; status per the model.
        const MovingObject obj =
            random_state(static_cast<UserId>(rng() % wp.num_users));
        Status st = engine->Insert(obj);
        if (model.Contains(obj.id)) {
          EXPECT_TRUE(st.IsAlreadyExists()) << st.ToString();
        } else {
          ASSERT_TRUE(st.ok()) << st.ToString();
          model.Upsert(obj);
          ASSERT_TRUE(monitor.OnUpdate(obj, now).ok());
        }
        break;
      }
      case 4: {  // Single-object update (upsert).
        const MovingObject obj =
            random_state(static_cast<UserId>(rng() % wp.num_users));
        ASSERT_TRUE(engine->Update(obj).ok());
        model.Upsert(obj);
        ASSERT_TRUE(monitor.OnUpdate(obj, now).ok());
        break;
      }
      case 5: {  // A batch naming an id outside the encoding is rejected
                 // whole: nothing of it may become visible.
        std::vector<UpdateEvent> batch = {stream->Next(), stream->Next()};
        batch.back().state.id = static_cast<UserId>(wp.num_users);
        EXPECT_TRUE(engine->ApplyBatch(batch).IsInvalidArgument());
        EXPECT_TRUE(engine->Insert(batch.back().state).IsInvalidArgument());
        break;
      }
      default: {  // Explicit merge: must not change any answer.
        ASSERT_TRUE(engine->MergeDeltas().ok());
        break;
      }
    }
    const uint64_t seed = 2000 + static_cast<uint64_t>(round);
    ExpectMatchesModel(w, *engine, model, seed, "round");
    check_standing("round");
    if (round % 8 == 0) {
      ASSERT_TRUE(engine->ValidateInvariants().ok());
    }
  }

  // Settle and compare once more: a fully merged engine must still agree,
  // and its buffers must actually be empty.
  ASSERT_TRUE(engine->MergeDeltas().ok());
  EXPECT_EQ(engine->delta_stats().buffered_records, 0u);
  EXPECT_GT(engine->delta_stats().merges, 0u);
  EXPECT_GT(engine->delta_stats().appended_total, 0u);
  ExpectMatchesModel(w, *engine, model, 9999, "final");
  check_standing("final");
  ASSERT_TRUE(engine->ValidateInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, DeltaIngestModelTest,
                         ::testing::Values(1, 4));

// ---------------------------------------------------------------------------
// Backpressure
// ---------------------------------------------------------------------------

TEST(DeltaIngestBackpressure, HardCapForcesInlineMergeOnTheWriter) {
  WorkloadParams wp;
  wp.num_users = 300;
  wp.policies_per_user = 8;
  wp.buffer_pages = 64;
  wp.grid_bits = 8;
  wp.seed = 31;
  Workload w = Workload::Build(wp);
  // Threshold high enough that only the hard cap can trigger merges.
  auto engine = MakeDeltaEngine(w, 2, /*merge_threshold=*/1u << 20,
                                /*hard_cap=*/32);
  Model model(w.dataset());
  auto stream = CloneUniformUpdateStream(w);
  for (int i = 0; i < 400; ++i) {
    UpdateEvent ev = stream->Next();
    ASSERT_TRUE(engine->Update(ev.state).ok());
    model.Upsert(ev.state);
    // The per-shard buffer never grows past the cap plus the one record
    // appended after the forced merge.
    for (size_t s = 0; s < engine->num_shards(); ++s) {
      EXPECT_LE(engine->shard_delta_records(s), 33u);
    }
  }
  const auto stats = engine->delta_stats();
  EXPECT_GT(stats.backpressure_merges, 0u);
  EXPECT_EQ(stats.appended_total, 400u);
  ExpectMatchesModel(w, *engine, model, 777, "backpressure");
}

// ---------------------------------------------------------------------------
// Concurrency: a merging test thread + writer + readers + validator (TSan)
// ---------------------------------------------------------------------------

// Every batch moves a whole group of the issuer's friends, each granted an
// open policy toward the issuer, between a point inside the watched window
// and one far outside it. A query pins one watermark, so it must see the
// group entirely inside or entirely outside — a partial group is a torn
// batch.
TEST(DeltaIngestConcurrency, QueriesRaceUpdatesAndMerges) {
  WorkloadParams wp;
  wp.num_users = 300;
  wp.policies_per_user = 8;
  wp.buffer_pages = 64;
  wp.grid_bits = 8;
  wp.seed = 37;
  Workload w = Workload::Build(wp);

  constexpr UserId kIssuer = 0;
  constexpr UserId kGroupSize = 120;  // Users 1..kGroupSize.
  PolicyCatalog* catalog = w.catalog();
  Lpp open = testing::OpenPolicy(catalog->DefineRole("group"),
                                 wp.space_side, wp.time_domain);
  for (UserId u = 1; u <= kGroupSize; ++u) {
    ASSERT_TRUE(catalog->AddPolicy(u, kIssuer, open).ok());
  }
  ASSERT_TRUE(catalog->Reencode().ok());

  // Paranoid off so merge sections stay short and the interleaving space
  // stays large.
  auto engine = MakeDeltaEngine(w, 4, /*merge_threshold=*/32, /*hard_cap=*/0,
                                /*paranoid=*/false);
  Model model(w.dataset());
  auto stream = CloneUniformUpdateStream(w);

  const Rect window{{200, 200}, {300, 300}};
  const Point inside{250, 250};
  const Point outside{750, 750};
  constexpr size_t kBatches = 60;
  constexpr size_t kStreamEvents = 20;
  std::vector<std::vector<UpdateEvent>> batches(kBatches);
  for (size_t b = 0; b < kBatches; ++b) {
    while (batches[b].size() < kStreamEvents) {
      UpdateEvent ev = stream->Next();
      if (ev.state.id == kIssuer || ev.state.id > kGroupSize) {
        batches[b].push_back(ev);
      }
    }
    const Timestamp t = batches[b].back().t;
    for (UserId u = 1; u <= kGroupSize; ++u) {
      MovingObject o;
      o.id = u;
      o.pos = b % 2 == 0 ? inside : outside;
      o.tu = t;
      batches[b].push_back({t, o});
    }
  }

  // Bounded reader loops with yield gaps: an unbounded 100% shared-lock
  // duty cycle from several readers can starve the merge sections' writer
  // acquisition forever on reader-preferring rwlocks — a test pathology,
  // not an engine property (merges only need the occasional gap real
  // query traffic always has).
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (const auto& batch : batches) {
      EXPECT_TRUE(engine->ApplyBatch(batch).ok());
    }
    done.store(true, std::memory_order_release);
  });
  std::thread merger([&] {
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_TRUE(engine->MergeDeltas().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::atomic<size_t> group_reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937 rng(100 + r);
      QuerySetOptions q;
      q.count = 4;
      q.window_side = 250.0;
      q.seed = 600 + static_cast<uint64_t>(r);
      auto prqs = MakePrqQueries(w, q);
      auto knns = MakePknnQueries(w, q);
      // A few passes even if the writer is already done: the group check
      // must run at least once.
      for (int it = 0;
           it < 400 && (it < 4 || !done.load(std::memory_order_acquire));
           ++it) {
        auto got = engine->RangeQuery(kIssuer, window, w.now());
        ASSERT_TRUE(got.ok());
        const size_t in_group = static_cast<size_t>(std::count_if(
            got->begin(), got->end(),
            [](UserId u) { return u >= 1 && u <= kGroupSize; }));
        EXPECT_TRUE(in_group == 0 || in_group == kGroupSize)
            << "torn batch: " << in_group << " of " << kGroupSize
            << " group members inside the window";
        group_reads.fetch_add(1, std::memory_order_relaxed);
        for (const auto& prq : prqs) {
          EXPECT_TRUE(
              engine->RangeQuery(prq.issuer, prq.range, prq.tq).ok());
        }
        for (const auto& knn : knns) {
          EXPECT_TRUE(
              engine->KnnQuery(knn.issuer, knn.qloc, knn.k, knn.tq).ok());
        }
        (void)engine->GetObject(static_cast<UserId>(rng() % wp.num_users));
        (void)engine->size();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  std::thread validator([&] {
    for (int it = 0; it < 20 && !done.load(std::memory_order_acquire);
         ++it) {
      EXPECT_TRUE(engine->ValidateInvariants().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  writer.join();
  merger.join();
  for (auto& t : readers) t.join();
  validator.join();
  EXPECT_GT(group_reads.load(), 0u);

  // Settle and compare against the model replayed over every batch.
  for (const auto& batch : batches) {
    for (const UpdateEvent& ev : batch) model.Upsert(ev.state);
  }
  ASSERT_TRUE(engine->MergeDeltas().ok());
  EXPECT_EQ(engine->delta_stats().buffered_records, 0u);
  ExpectMatchesModel(w, *engine, model, 888, "concurrent-settled");
  ASSERT_TRUE(engine->ValidateInvariants().ok());
}

}  // namespace
}  // namespace peb
