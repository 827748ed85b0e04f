#include "policy/sequence_value.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <thread>

#include "common/check.h"
#include "common/thread_pool.h"

namespace peb {

namespace {

/// Marks a candidate whose pair scored C = 0, for pruning from both users'
/// rows. Only the top bit changes, so a row stays sorted by masked id.
constexpr UserId kZeroMark = UserId{1} << 31;

bool HasZeroMark(UserId v) { return (v & kZeroMark) != 0; }

/// Users ordered by |G| descending, ties by id (Figure 5 line 5).
std::vector<UserId> OrderByDegreeDesc(const RelatednessGraph& graph) {
  std::vector<UserId> order(graph.num_users());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<UserId>(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](UserId a, UserId b) {
    if (graph.degree[a] != graph.degree[b]) {
      return graph.degree[a] > graph.degree[b];
    }
    return a < b;
  });
  return order;
}

/// Splits users into contiguous ranges [bounds[i], bounds[i + 1]) of about
/// equal work (row slots plus one per user), several per thread so that one
/// heavy range does not hold up a pass.
std::vector<size_t> UserRanges(const RelatednessGraph& graph,
                               const ThreadPool& pool) {
  const std::vector<size_t>& offsets = graph.offsets;
  const size_t num_ranges = 4 * std::max<size_t>(1, pool.num_threads());
  const size_t n = offsets.size() - 1;
  const size_t total = offsets[n] + n;
  std::vector<size_t> bounds{0};
  size_t u = 0;
  for (size_t r = 1; r < num_ranges; ++r) {
    const size_t target = total * r / num_ranges;
    while (u < n && offsets[u] + u < target) ++u;
    if (u > bounds.back() && u < n) bounds.push_back(u);
  }
  bounds.push_back(n);
  return bounds;
}

/// Runs fn(lo, hi) for every range of `bounds` on `pool` and waits. Each
/// call must write only the outputs of users lo..hi-1, which makes the
/// result independent of the thread count.
void ForEachRange(ThreadPool& pool, const std::vector<size_t>& bounds,
                  const std::function<void(size_t, size_t)>& fn) {
  std::vector<std::function<void()>> tasks;
  tasks.reserve(bounds.size() - 1);
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    tasks.push_back([&fn, lo = bounds[i], hi = bounds[i + 1]] { fn(lo, hi); });
  }
  pool.RunAll(std::move(tasks));
}

}  // namespace

size_t CandidateBound(const PolicyStore& store, UserId u) {
  return store.PeersOf(u).size() + store.OwnersToward(u).size();
}

size_t CollectCandidates(const PolicyStore& store, UserId u, size_t num_users,
                         UserId* out) {
  // Both spans are ascending and duplicate-free (policy_store.h), so their
  // union below num_users, minus u, is the answer.
  auto below = [num_users](std::span<const UserId> ids) {
    return ids.first(static_cast<size_t>(
        std::lower_bound(ids.begin(), ids.end(), num_users) - ids.begin()));
  };
  const std::span<const UserId> peers = below(store.PeersOf(u));
  const std::span<const UserId> owners = below(store.OwnersToward(u));
  UserId* last = std::set_union(peers.begin(), peers.end(), owners.begin(),
                                owners.end(), out);
  return static_cast<size_t>(std::remove(out, last, u) - out);
}

RelatednessGraph RelatednessGraph::FromLists(
    const std::vector<std::vector<UserId>>& lists) {
  RelatednessGraph graph;
  graph.offsets.reserve(lists.size() + 1);
  graph.degree.reserve(lists.size());
  for (const std::vector<UserId>& related : lists) {
    graph.degree.push_back(static_cast<uint32_t>(related.size()));
    graph.neighbors.insert(graph.neighbors.end(), related.begin(),
                           related.end());
    graph.offsets.push_back(graph.neighbors.size());
  }
  return graph;
}

SequenceAssignment AssignSequenceValuesFromGraph(
    const RelatednessGraph& graph, const CompatFn& compat,
    const SequenceValueOptions& options) {
  const size_t num_users = graph.num_users();
  SequenceAssignment out;
  out.sv.assign(num_users, -1.0);  // -1 = unassigned (⊥ in Figure 5).
  out.order = OrderByDegreeDesc(graph);

  // Step 3: assignment (Figure 5 lines 6-12).
  for (size_t k = 0; k < num_users; ++k) {
    UserId uk = out.order[k];
    if (out.sv[uk] >= 0.0) continue;  // Already assigned via a group.
    if (k == 0) {
      out.sv[uk] = options.initial_sv;
    } else {
      // SV(uk) = SV(u_{k-1}) + δ, where u_{k-1} is the previous user in the
      // sorted list (guaranteed assigned by now).
      out.sv[uk] = out.sv[out.order[k - 1]] + options.delta;
    }
    out.num_anchors++;
    for (UserId uj : graph.Related(uk)) {
      if (out.sv[uj] < 0.0) {
        out.sv[uj] = out.sv[uk] + (1.0 - compat(uk, uj));
      }
    }
  }
  return out;
}

SequenceAssignment AssignSequenceValuesBfsFromGraph(
    const RelatednessGraph& graph, const CompatFn& compat,
    const SequenceValueOptions& options) {
  SequenceAssignment out;
  out.sv.assign(graph.num_users(), -1.0);
  out.order = OrderByDegreeDesc(graph);

  double cursor = options.initial_sv;  // Next component anchor value.
  double max_assigned = -1.0;
  std::vector<UserId> queue;
  for (UserId seed : out.order) {
    if (out.sv[seed] >= 0.0) continue;
    out.sv[seed] = cursor;
    max_assigned = std::max(max_assigned, cursor);
    out.num_anchors++;
    queue.clear();
    queue.push_back(seed);
    for (size_t head = 0; head < queue.size(); ++head) {
      UserId u = queue[head];
      for (UserId v : graph.Related(u)) {
        if (out.sv[v] >= 0.0) continue;
        out.sv[v] = out.sv[u] + (1.0 - compat(u, v));
        max_assigned = std::max(max_assigned, out.sv[v]);
        queue.push_back(v);
      }
    }
    cursor = max_assigned + options.delta;
  }
  return out;
}

RelatednessGraph RelatednessGraph::Build(const PolicyStore& store,
                                         size_t num_users,
                                         const CompatibilityOptions& compat,
                                         ThreadPool& pool) {
  CHECK_LE(num_users, size_t{kZeroMark}) << "user ids must leave the top bit "
                                            "free for the C = 0 mark";
  // Every output is allocated here, on the calling thread, with each
  // user's row sized for its candidates; the workers only fill and sort in
  // place. (A worker that allocates makes glibc give its thread an arena,
  // which keeps memory after the build.)
  RelatednessGraph graph;
  graph.offsets.resize(num_users + 1);
  graph.degree.resize(num_users);
  for (size_t i = 0; i < num_users; ++i) {
    graph.offsets[i + 1] =
        graph.offsets[i] + CandidateBound(store, static_cast<UserId>(i));
  }
  graph.neighbors.resize(graph.offsets[num_users]);
  const std::vector<size_t> bounds = UserRanges(graph, pool);
  auto row = [&graph](size_t i) {
    return graph.neighbors.data() + graph.offsets[i];
  };

  // 1. Candidates, each unordered pair scored once at its lower id (C is
  //    symmetric). A pair with C = 0 is marked in the lower id's row.
  std::vector<uint8_t> has_zero(num_users, 0);
  ForEachRange(pool, bounds, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const UserId u = static_cast<UserId>(i);
      UserId* first = row(i);
      UserId* last = first + CollectCandidates(store, u, num_users, first);
      graph.degree[i] = static_cast<uint32_t>(last - first);
      for (UserId* v = std::upper_bound(first, last, u); v != last; ++v) {
        if (!(Compatibility(store, u, *v, compat) > 0.0)) {
          *v |= kZeroMark;
          has_zero[i] = 1;
        }
      }
    }
  });

  // 2. Mirror each mark into the higher id's row. Serial, since it writes
  //    another user's row; pairs with C = 0 are rare.
  bool any_zero = false;
  for (size_t i = 0; i < num_users; ++i) {
    if (!has_zero[i]) continue;
    any_zero = true;
    const UserId u = static_cast<UserId>(i);
    for (UserId* v = row(i); v != row(i) + graph.degree[i]; ++v) {
      const UserId w = *v & ~kZeroMark;
      if (!HasZeroMark(*v) || w < u) continue;
      UserId* last = row(w) + graph.degree[w];
      UserId* mirror = std::lower_bound(
          row(w), last, u,
          [](UserId a, UserId b) { return (a & ~kZeroMark) < b; });
      CHECK(mirror != last && (*mirror & ~kZeroMark) == u)
          << "candidates of " << w << " lack " << u;
      *mirror |= kZeroMark;
      has_zero[w] = 1;
    }
  }

  // 3. Prune the marked pairs from both rows.
  if (any_zero) {
    ForEachRange(pool, bounds, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        if (!has_zero[i]) continue;
        UserId* first = row(i);
        graph.degree[i] = static_cast<uint32_t>(
            std::remove_if(first, first + graph.degree[i], HasZeroMark) -
            first);
      }
    });
  }

  return graph;
}

size_t EncodingSnapshot::BuildThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

void EncodingSnapshot::FillFriendList(const PolicyStore& store, UserId u,
                                      std::vector<FriendEntry>& list) const {
  size_t kept = 0;
  for (UserId owner : store.OwnersToward(u)) {
    if (owner == u || owner >= num_users()) continue;
    list[kept++] = {owner, sv_[owner], qsv_[owner]};
  }
  list.resize(kept);
  std::sort(list.begin(), list.end(),
            [](const FriendEntry& a, const FriendEntry& b) {
              if (a.qsv != b.qsv) return a.qsv < b.qsv;
              return a.uid < b.uid;
            });
}

EncodingSnapshot EncodingSnapshot::Build(const PolicyStore& store,
                                         size_t num_users,
                                         const CompatibilityOptions& compat,
                                         const SequenceValueOptions& sv_options,
                                         const SvQuantizer& quantizer,
                                         SequenceStrategy strategy) {
  EncodingSnapshot enc(quantizer);
  const size_t threads = BuildThreads();
  ThreadPool pool(threads > 1 ? threads : 0);
  std::vector<size_t> bounds;
  {
    const RelatednessGraph graph =
        RelatednessGraph::Build(store, num_users, compat, pool);
    bounds = UserRanges(graph, pool);

    // Figure-5 (or BFS) assignment, serial.
    auto edge_compat = [&](UserId a, UserId b) {
      return Compatibility(store, a, b, compat);
    };
    enc.assignment_ =
        strategy == SequenceStrategy::kGroupOrder
            ? AssignSequenceValuesFromGraph(graph, edge_compat, sv_options)
            : AssignSequenceValuesBfsFromGraph(graph, edge_compat,
                                               sv_options);
  }  // The graph is freed before the friend lists are allocated.
  enc.sv_ = enc.assignment_.sv;
  enc.qsv_.resize(num_users);
  for (size_t i = 0; i < num_users; ++i) {
    enc.qsv_[i] = quantizer.Quantize(enc.sv_[i]);
  }

  // Friend lists, allocated here and filled by the workers (see
  // RelatednessGraph::Build on why workers do not allocate).
  std::vector<std::shared_ptr<std::vector<FriendEntry>>> lists(num_users);
  for (size_t i = 0; i < num_users; ++i) {
    lists[i] = std::make_shared<std::vector<FriendEntry>>(
        store.OwnersToward(static_cast<UserId>(i)).size());
  }
  ForEachRange(pool, bounds, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      enc.FillFriendList(store, static_cast<UserId>(i), *lists[i]);
    }
  });
  enc.friends_.assign(std::make_move_iterator(lists.begin()),
                      std::make_move_iterator(lists.end()));
  return enc;
}

}  // namespace peb
