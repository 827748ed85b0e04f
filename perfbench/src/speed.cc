#include "speed.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

constexpr size_t kKeysPerPage = 512;  // 4 KiB of 8-byte keys.
constexpr size_t kPages = 16384;      // 64 MiB.
constexpr size_t kSearches = 80000;

inline uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

// Keeps the compiler from dropping the searches.
volatile uint64_t g_sink;

}  // namespace

double SpeedProbeMs() {
  static const std::vector<uint64_t> keys = [] {
    std::vector<uint64_t> v(kPages * kKeysPerPage);
    for (size_t i = 0; i < v.size(); ++i) v[i] = Mix(i);
    for (auto page = v.begin(); page != v.end(); page += kKeysPerPage) {
      std::sort(page, page + kKeysPerPage);
    }
    return v;
  }();
  // Each call goes on where the last stopped, so no two calls search the
  // same pages in the same order.
  static uint64_t seq = 0;
  uint64_t acc = 0;
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < kSearches; ++i) {
    const uint64_t h = Mix(++seq);
    const auto page = keys.begin() + static_cast<std::ptrdiff_t>(
                                         (h % kPages) * kKeysPerPage);
    acc += static_cast<uint64_t>(
        std::lower_bound(page, page + kKeysPerPage, h ^ acc) - page);
  }
  const double ms = MsBetween(t0, Clock::now());
  g_sink = acc;
  return ms;
}

}  // namespace perfbench
