#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <set>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace peb {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(Status, FactoriesSetCodeAndMessage) {
  Status s = Status::NotFound("key 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: key 42");

  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
}

TEST(Status, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IOError("a"));
}

Status FailIfNegative(int x) {
  PEB_RETURN_NOT_OK(x < 0 ? Status::InvalidArgument("negative") : Status::OK());
  return Status::OK();
}

TEST(Status, ReturnNotOkMacro) {
  EXPECT_TRUE(FailIfNegative(1).ok());
  EXPECT_TRUE(FailIfNegative(-1).IsInvalidArgument());
}

TEST(Result, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(r.value_or(3), 7);
}

TEST(Result, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(3), 3);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  PEB_ASSIGN_OR_RETURN(int h, Half(x));
  PEB_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(Result, AssignOrReturnMacro) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  EXPECT_TRUE(Quarter(6).status().IsInvalidArgument());  // 6/2=3 is odd.
  EXPECT_TRUE(Quarter(5).status().IsInvalidArgument());
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  bool all_equal = true;
  bool any_diff_seed_diff = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next64();
    if (va != b.Next64()) all_equal = false;
    if (va != c.Next64()) any_diff_seed_diff = true;
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed_diff);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.Uniform(-5.0, 11.0);
    EXPECT_GE(d, -5.0);
    EXPECT_LT(d, 11.0);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.NextBelow(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // All residues hit.
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(13);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextBoolRoughlyCalibrated) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.NextBool(0.25) ? 1 : 0;
  double rate = static_cast<double>(hits) / n;
  EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(Rng, MeanOfUniformIsCentered) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunAllCompletesEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 1; i <= 100; ++i) {
    tasks.push_back([&sum, i] { sum += i; });
  }
  pool.RunAll(std::move(tasks));
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  int calls = 0;
  pool.Submit([&calls] { calls++; });
  pool.RunAll({[&calls] { calls++; }, [&calls] { calls++; }});
  EXPECT_EQ(calls, 3);
}

}  // namespace
}  // namespace peb
