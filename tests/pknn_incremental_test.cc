// PkNN tests: the search (cost-model-seeded radius, exact annulus-delta
// scans, qsv-run coalescing, streaming shard merge with retirement) must
// answer exactly what the brute-force Definition-2 reference
// (tests/test_util.h) answers — for any shard count, for adversarial k
// values at or above the number of matching friends, when only Section
// 5.4's final vertical scan can find the nearest friend, and while
// policy-encoding epochs transition under the queries. Runs under the TSan
// CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "engine/sharded_engine.h"
#include "eval/runner.h"
#include "eval/workload.h"
#include "bxtree/knn_schedule.h"
#include "policy/policy_catalog.h"
#include "policy/policy_generator.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace peb {
namespace {

using engine::ShardedPebEngine;
using eval::MakeEngine;
using eval::MakePknnQueries;
using eval::PknnQuery;
using eval::QuerySetOptions;
using eval::Workload;
using eval::WorkloadParams;

WorkloadParams SmallParams(uint64_t seed) {
  WorkloadParams p;
  p.num_users = 800;
  p.policies_per_user = 10;
  p.buffer_pages = 50;
  p.grid_bits = 8;
  p.seed = seed;
  return p;
}

/// Sorts a kNN answer by (distance, uid): distances are continuous, so
/// this only normalizes the order of exact ties, which merges may permute.
std::vector<Neighbor> Normalized(std::vector<Neighbor> v) {
  std::sort(v.begin(), v.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.uid < b.uid;
  });
  return v;
}

/// Checks `got` against the brute-force reference answer for `query` at
/// `k`: same uids, and bit-identical distances — both sides extrapolate
/// the same stored state to tq and measure the same Euclidean distance.
void ExpectMatchesReference(const Workload& w, const PknnQuery& query,
                            size_t k, const std::vector<Neighbor>& got,
                            const char* context, size_t qi) {
  std::vector<Neighbor> want = testing::BruteForcePknn(
      w.dataset(), w.store(), w.roles(), query.issuer, query.qloc, k,
      query.tq, w.params().time_domain);
  std::vector<Neighbor> gn = Normalized(got);
  ASSERT_EQ(gn.size(), want.size()) << context << " query " << qi;
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(gn[r].uid, want[r].uid) << context << " query " << qi
                                      << " rank " << r;
    EXPECT_EQ(gn[r].distance, want[r].distance)
        << context << " query " << qi << " rank " << r;
  }
}

TEST(PknnWorldTest, SingleTreeMatchesBruteForce) {
  Workload w = Workload::Build(SmallParams(17));

  QuerySetOptions q;
  q.count = 40;
  q.seed = 2024;
  auto knn = MakePknnQueries(w, q);
  bool any_results = false;
  for (size_t i = 0; i < knn.size(); ++i) {
    auto got = w.peb().KnnQuery(knn[i].issuer, knn[i].qloc, knn[i].k,
                                knn[i].tq);
    ASSERT_TRUE(got.ok());
    ExpectMatchesReference(w, knn[i], knn[i].k, *got, "single-tree", i);
    any_results |= !got->empty();
  }
  EXPECT_TRUE(any_results);  // The batch exercised non-trivial searches.
}

class PknnShardCountTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PknnShardCountTest, EngineMatchesBruteForce) {
  const size_t shards = GetParam();
  Workload w = Workload::Build(SmallParams(29));
  auto engine = MakeEngine(w, shards, 4);

  QuerySetOptions q;
  q.count = 30;
  q.seed = 3030;
  auto knn = MakePknnQueries(w, q);
  for (size_t i = 0; i < knn.size(); ++i) {
    auto got =
        engine->KnnQuery(knn[i].issuer, knn[i].qloc, knn[i].k, knn[i].tq);
    ASSERT_TRUE(got.ok());
    ExpectMatchesReference(w, knn[i], knn[i].k, *got, "engine", i);
  }
}

TEST_P(PknnShardCountTest, AdversarialKAtOrAboveMatchingFriends) {
  const size_t shards = GetParam();
  Workload w = Workload::Build(SmallParams(31));
  auto engine = MakeEngine(w, shards, 2);

  // With 10 policies/user an issuer has far fewer matching friends than
  // these k values, so every search exhausts its rows (the k-candidates
  // early stop never fires) and must still terminate and agree.
  QuerySetOptions q;
  q.count = 8;
  q.seed = 4242;
  auto knn = MakePknnQueries(w, q);
  for (size_t k : {25u, 200u, 800u, 1000u}) {
    for (size_t i = 0; i < knn.size(); ++i) {
      auto single =
          w.peb().KnnQuery(knn[i].issuer, knn[i].qloc, k, knn[i].tq);
      auto fanned =
          engine->KnnQuery(knn[i].issuer, knn[i].qloc, k, knn[i].tq);
      ASSERT_TRUE(single.ok());
      ASSERT_TRUE(fanned.ok());
      EXPECT_LE(single->size(), k);
      ExpectMatchesReference(w, knn[i], k, *single, "adversarial-single", i);
      ExpectMatchesReference(w, knn[i], k, *fanned, "adversarial-engine", i);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, PknnShardCountTest,
                         ::testing::Values(1, 2, 4, 7));

// ---------------------------------------------------------------------------
// Section 5.4's vertical scan
// ---------------------------------------------------------------------------

// A hand-built world whose nearest neighbour (k = 1) only the final
// vertical scan can find. Round 0 scans the square of half-side r around
// the query point. Friend A sits inside it near its corner (distance
// 0.9 r * sqrt 2, about 1.27 r); friend B sits outside its side (distance
// 1.2 r). Round 0 locates A, so the search stops with dk = |A|, and B —
// nearer than A but outside every scanned ring, in a run whose covered
// radius is below dk — is located only by the square of half-side dk.
// Objects are static and max_speed is 0, so no window is enlarged for
// motion.
struct VerticalScanWorld {
  static constexpr UserId kIssuer = 0;
  static constexpr UserId kA = 1;
  static constexpr UserId kB = 2;
  static constexpr size_t kUsers = 3;
  static constexpr size_t kK = 1;
  static constexpr Timestamp kTq = 0.0;

  GeneratedPolicies gp;
  std::shared_ptr<const EncodingSnapshot> snapshot;
  PebTreeOptions options;
  Dataset ds;
  Point qloc{100.0, 100.0};
  double r = 0.0;  ///< Round-0 radius: the seed every index derives.

  VerticalScanWorld() {
    RoleId role = gp.roles.RegisterRole("friend");
    for (UserId u : {kA, kB}) {
      gp.store.Add(u, kIssuer, testing::OpenPolicy(role));
      gp.roles.AssignRole(u, kIssuer, role);
    }
    snapshot = std::make_shared<const EncodingSnapshot>(EncodingSnapshot::Build(
        gp.store, kUsers, CompatibilityOptions{}, {}, SvQuantizer(64.0, 26)));
    options.index.grid_bits = 8;
    options.index.max_speed = 0.0;
    r = KnnSeededRadiusForRound(
        KnnSeedRadiusFor(snapshot->FriendsOf(kIssuer).size(), kUsers, kUsers,
                         kK, options.index.space_side),
        0);
    ds.objects = {
        {kIssuer, qloc, {0, 0}, kTq},
        {kA, {qloc.x + 0.9 * r, qloc.y + 0.9 * r}, {0, 0}, kTq},
        {kB, {qloc.x + 1.2 * r, qloc.y}, {0, 0}, kTq},
    };
  }
};

void ExpectVerticalScanWorldAnswer(const VerticalScanWorld& w,
                                   const std::vector<Neighbor>& got,
                                   const char* context) {
  std::vector<Neighbor> want = testing::BruteForcePknn(
      w.ds, w.gp.store, w.gp.roles, w.kIssuer, w.qloc, w.kK, w.kTq);
  ASSERT_EQ(want.size(), 1u);
  ASSERT_EQ(want[0].uid, w.kB);  // B is nearer than A.
  ASSERT_EQ(got.size(), want.size()) << context;
  EXPECT_EQ(got[0].uid, want[0].uid) << context;
  EXPECT_EQ(got[0].distance, want[0].distance) << context;
}

TEST(PknnVerticalScan, FindsANeighbourOutsideEveryScannedRing) {
  VerticalScanWorld w;
  for (const MovingObject& o : w.ds.objects) {
    ASSERT_TRUE(Rect::Space(w.options.index.space_side).Contains(o.pos))
        << "object " << o.id << " placed outside the space";
  }

  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{16});
  PebTree tree(&pool, w.options, &w.gp.store, &w.gp.roles, w.snapshot);
  for (const MovingObject& o : w.ds.objects) ASSERT_TRUE(tree.Insert(o).ok());

  // The premise: the first anti-diagonal locates A and not B, so the search
  // stops with A as its k-th candidate.
  {
    PebTree::KnnScan scan = tree.NewKnnScan(
        w.kIssuer, w.qloc, w.kTq, w.r, w.snapshot->FriendsOf(w.kIssuer));
    ASSERT_EQ(scan.RadiusForRound(0), w.r);
    std::vector<Neighbor> verified;
    ASSERT_TRUE(scan.ScanDiagonal(0, &verified).ok());
    ASSERT_EQ(verified.size(), 1u);
    ASSERT_EQ(verified[0].uid, w.kA);
  }

  auto single = tree.KnnQuery(w.kIssuer, w.qloc, w.kK, w.kTq);
  ASSERT_TRUE(single.ok());
  ExpectVerticalScanWorldAnswer(w, *single, "single tree");

  for (size_t shards : {1u, 4u}) {
    engine::EngineOptions opts;
    opts.num_shards = shards;
    // Inline shard tasks run in shard order, so when A and B live on
    // different shards A's shard publishes A before B's shard starts.
    opts.num_threads = 0;
    opts.tree = w.options;
    ShardedPebEngine engine(opts, &w.gp.store, &w.gp.roles, w.snapshot);
    ASSERT_TRUE(engine.LoadDataset(w.ds).ok());
    ASSERT_LE(engine.router().ShardOf(w.kA), engine.router().ShardOf(w.kB));
    auto got = engine.KnnQuery(w.kIssuer, w.qloc, w.kK, w.kTq);
    ASSERT_TRUE(got.ok());
    ExpectVerticalScanWorldAnswer(
        w, *got, shards == 1 ? "engine, 1 shard" : "engine, 4 shards");
  }
}

// ---------------------------------------------------------------------------
// Mid-query epoch stability
// ---------------------------------------------------------------------------

// Queries pin the encoding snapshot at admission, so a streaming PkNN that
// overlaps an epoch transition must answer ENTIRELY under one epoch: its
// response's stamped epoch names which, and the answer must equal a static
// index pinned at that snapshot. The policy store is mutated BEFORE the
// concurrent phase (verification state stays constant; only the snapshot
// flips), so each epoch has one well-defined expected answer set.
TEST(PknnEpochStability, StreamingQueriesSeeExactlyOneEpoch) {
  WorkloadParams p = SmallParams(37);
  p.num_users = 400;
  Workload w = Workload::Build(p);
  PolicyCatalog* catalog = w.catalog();

  std::shared_ptr<const EncodingSnapshot> s0 = catalog->snapshot();

  // One mutation wave -> epoch 1. The store is final from here on.
  Lpp grant;
  grant.role = catalog->DefineRole("epoch-test-role");
  grant.locr = Rect::Space(p.space_side);
  grant.tint = TimeOfDayInterval::AllDay(p.time_domain);
  for (UserId u = 0; u < 12; ++u) {
    ASSERT_TRUE(catalog->AddPolicy(u, u + 40, grant).ok());
  }
  auto re = catalog->Reencode();
  ASSERT_TRUE(re.ok());
  std::shared_ptr<const EncodingSnapshot> s1 = re->snapshot;
  ASSERT_NE(s0->epoch(), s1->epoch());

  // Expected answers per epoch, from single trees pinned at each snapshot
  // (same final store/roles).
  auto make_pinned = [&](std::shared_ptr<const EncodingSnapshot> snap,
                         InMemoryDiskManager* disk,
                         std::unique_ptr<BufferPool>* pool) {
    pool->reset(new BufferPool(disk, BufferPoolOptions{p.buffer_pages}));
    PebTreeOptions opts = eval::PebOptionsFor(p);
    auto tree = std::make_unique<PebTree>(pool->get(), opts, &w.store(),
                                          &w.roles(), std::move(snap));
    for (const MovingObject& o : w.dataset().objects) {
      EXPECT_TRUE(tree->Insert(o).ok());
    }
    return tree;
  };
  InMemoryDiskManager disk0, disk1;
  std::unique_ptr<BufferPool> pool0, pool1;
  auto tree0 = make_pinned(s0, &disk0, &pool0);
  auto tree1 = make_pinned(s1, &disk1, &pool1);

  QuerySetOptions q;
  q.count = 12;
  q.seed = 555;
  auto knn = MakePknnQueries(w, q);
  std::vector<std::vector<Neighbor>> want0, want1;
  for (const PknnQuery& query : knn) {
    auto a = tree0->KnnQuery(query.issuer, query.qloc, query.k, query.tq);
    auto b = tree1->KnnQuery(query.issuer, query.qloc, query.k, query.tq);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    want0.push_back(Normalized(*a));
    want1.push_back(Normalized(*b));
  }

  // The engine (built at the catalog's current epoch) flips s0 <-> s1
  // while query threads hammer it; every response must match the expected
  // answers of the epoch it reports.
  auto engine = MakeEngine(w, 4, 4);
  ASSERT_EQ(engine->encoding_epoch(), s1->epoch());

  std::atomic<bool> stop{false};
  std::atomic<size_t> checked{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      for (int iter = 0; iter < 15; ++iter) {
        size_t i = static_cast<size_t>(t + iter) % knn.size();
        QueryStats stats;
        auto got = engine->KnnQueryWithStats(knn[i].issuer, knn[i].qloc,
                                             knn[i].k, knn[i].tq, &stats);
        ASSERT_TRUE(got.ok());
        const std::vector<std::vector<Neighbor>>& want =
            stats.epoch == s0->epoch() ? want0 : want1;
        ASSERT_TRUE(stats.epoch == s0->epoch() ||
                    stats.epoch == s1->epoch());
        std::vector<Neighbor> gn = Normalized(*got);
        ASSERT_EQ(gn.size(), want[i].size()) << "query " << i;
        for (size_t r = 0; r < gn.size(); ++r) {
          EXPECT_EQ(gn[r].uid, want[i][r].uid) << "query " << i;
          EXPECT_EQ(gn[r].distance, want[i][r].distance) << "query " << i;
        }
        checked++;
      }
    });
  }
  std::thread flipper([&] {
    bool to_s1 = true;
    while (!stop.load()) {
      ASSERT_TRUE(engine->AdoptSnapshot(to_s1 ? s1 : s0, nullptr).ok());
      to_s1 = !to_s1;
    }
  });
  for (auto& r : readers) r.join();
  stop.store(true);
  flipper.join();
  EXPECT_EQ(checked.load(), 3u * 15u);
}

}  // namespace
}  // namespace peb
