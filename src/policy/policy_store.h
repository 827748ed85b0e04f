// PolicyStore: all users' location-privacy policies, as held by the service
// provider ("we assume ... the server has access to all users' privacy
// policies", Section 3).
//
// Directed storage: Get(owner, peer) is the list of LPPs `owner` defined
// for `peer`. The reverse index (who has a policy *toward* me) backs the
// per-user friend lists the query algorithms need (Section 5.3: "we
// maintain a list for each user that stores the SV values of users who
// have policies with respect to the list owner").
//
// Layout: one flat row per user, found through a map keyed by user id (ids
// may be sparse, up to max() - 1). A row holds the user's peers ascending,
// the end offset of each peer's policies, one contiguous vector of those
// policies grouped by peer, and the ascending list of owners toward the
// user. Lookups of a pair binary-search the owner's row (about Np = 50
// peers at the paper's defaults), so per policy the store costs the Lpp
// itself plus a few ids, not a hash node and a heap vector per pair.
//
// Span contract: PeersOf and OwnersToward return ascending ids without
// duplicates (callers merge them, see CollectCandidates); Get returns one
// pair's policies in the order they were added. A span stays valid until
// the next Add or RemoveAll that touches its user's row: Add(owner, peer)
// and RemoveAll(owner, peer) touch the rows of `owner` and `peer`, and no
// other.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "policy/lpp.h"
#include "policy/role_registry.h"

namespace peb {

class PolicyStore {
 public:
  /// Adds a policy `owner` defines for `peer`. Multiple policies per pair
  /// are supported (the paper's future-work extension).
  void Add(UserId owner, UserId peer, const Lpp& policy);

  /// Removes all policies from `owner` toward `peer`. Returns how many were
  /// removed.
  size_t RemoveAll(UserId owner, UserId peer);

  /// Policies `owner` defined for `peer`, in the order added (empty when
  /// none).
  std::span<const Lpp> Get(UserId owner, UserId peer) const;

  /// Users for whom `owner` has defined at least one policy (outgoing),
  /// ascending.
  std::span<const UserId> PeersOf(UserId owner) const;

  /// Users who have defined at least one policy toward `peer` (incoming),
  /// ascending — the raw friend list of `peer`.
  std::span<const UserId> OwnersToward(UserId peer) const;

  /// Total number of stored policies.
  size_t num_policies() const { return num_policies_; }

  /// Number of outgoing policies of `owner` (the paper's per-user Np).
  size_t NumPoliciesOf(UserId owner) const;

  /// Evaluates whether `owner`'s policies allow `issuer` to see `owner` at
  /// position `pos` and absolute time `t` (Definition 2's conditions
  /// qID ∈ role, (x,y) ∈ locr, tq ∈ tint).
  bool Allows(UserId owner, UserId issuer, const Point& pos, double t,
              const RoleRegistry& roles,
              double time_domain = kDefaultTimeDomain) const;

 private:
  struct Row {
    /// Users this user has policies for, ascending.
    std::vector<UserId> peers;
    /// ends[i]: one past the last policy for peers[i] in `policies`.
    std::vector<uint32_t> ends;
    /// This user's policies, grouped by peer in `peers` order.
    std::vector<Lpp> policies;
    /// Users with policies toward this user, ascending.
    std::vector<UserId> owners;

    bool empty() const { return peers.empty() && owners.empty(); }
    /// Index of `peer` in `peers`, or peers.size() when absent.
    size_t Find(UserId peer) const;
    uint32_t Begin(size_t i) const { return i == 0 ? 0 : ends[i - 1]; }
  };

  const Row* RowOf(UserId u) const;
  void EraseIfEmpty(UserId u);

  /// Keyed by user; only users with a policy or an owner toward them.
  std::unordered_map<UserId, Row> rows_;
  size_t num_policies_ = 0;
};

}  // namespace peb
