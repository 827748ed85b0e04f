#include "policy/policy_store.h"

#include <algorithm>

namespace peb {

size_t PolicyStore::Row::Find(UserId peer) const {
  auto it = std::lower_bound(peers.begin(), peers.end(), peer);
  return it != peers.end() && *it == peer
             ? static_cast<size_t>(it - peers.begin())
             : peers.size();
}

const PolicyStore::Row* PolicyStore::RowOf(UserId u) const {
  auto it = rows_.find(u);
  return it == rows_.end() ? nullptr : &it->second;
}

void PolicyStore::EraseIfEmpty(UserId u) {
  auto it = rows_.find(u);
  if (it != rows_.end() && it->second.empty()) rows_.erase(it);
}

void PolicyStore::Add(UserId owner, UserId peer, const Lpp& policy) {
  // References into rows_ survive the insertion of other keys.
  Row& row = rows_[owner];
  auto it = std::lower_bound(row.peers.begin(), row.peers.end(), peer);
  const size_t i = static_cast<size_t>(it - row.peers.begin());
  if (it == row.peers.end() || *it != peer) {
    row.peers.insert(it, peer);
    row.ends.insert(row.ends.begin() + i, row.Begin(i));
    std::vector<UserId>& owners = rows_[peer].owners;
    owners.insert(std::lower_bound(owners.begin(), owners.end(), owner),
                  owner);
  }
  row.policies.insert(row.policies.begin() + row.ends[i], policy);
  for (size_t j = i; j < row.ends.size(); ++j) row.ends[j]++;
  num_policies_++;
}

size_t PolicyStore::RemoveAll(UserId owner, UserId peer) {
  auto found = rows_.find(owner);
  if (found == rows_.end()) return 0;
  Row& row = found->second;
  const size_t i = row.Find(peer);
  if (i == row.peers.size()) return 0;
  const uint32_t begin = row.Begin(i);
  const uint32_t removed = row.ends[i] - begin;
  row.policies.erase(row.policies.begin() + begin,
                     row.policies.begin() + row.ends[i]);
  row.peers.erase(row.peers.begin() + i);
  row.ends.erase(row.ends.begin() + i);
  for (size_t j = i; j < row.ends.size(); ++j) row.ends[j] -= removed;
  std::vector<UserId>& owners = rows_.at(peer).owners;
  owners.erase(std::lower_bound(owners.begin(), owners.end(), owner));
  EraseIfEmpty(owner);
  EraseIfEmpty(peer);
  num_policies_ -= removed;
  return removed;
}

std::span<const Lpp> PolicyStore::Get(UserId owner, UserId peer) const {
  const Row* row = RowOf(owner);
  if (row == nullptr) return {};
  const size_t i = row->Find(peer);
  if (i == row->peers.size()) return {};
  const uint32_t begin = row->Begin(i);
  return std::span<const Lpp>(row->policies).subspan(begin,
                                                     row->ends[i] - begin);
}

std::span<const UserId> PolicyStore::PeersOf(UserId owner) const {
  const Row* row = RowOf(owner);
  return row == nullptr ? std::span<const UserId>{}
                        : std::span<const UserId>(row->peers);
}

std::span<const UserId> PolicyStore::OwnersToward(UserId peer) const {
  const Row* row = RowOf(peer);
  return row == nullptr ? std::span<const UserId>{}
                        : std::span<const UserId>(row->owners);
}

size_t PolicyStore::NumPoliciesOf(UserId owner) const {
  const Row* row = RowOf(owner);
  return row == nullptr ? 0 : row->policies.size();
}

bool PolicyStore::Allows(UserId owner, UserId issuer, const Point& pos,
                         double t, const RoleRegistry& roles,
                         double time_domain) const {
  for (const Lpp& p : Get(owner, issuer)) {
    // The role lookup is the costly test (another row), and most candidates
    // fail on place or time, so it goes last.
    if (p.locr.Contains(pos) && p.tint.Contains(t, time_domain) &&
        roles.HasRole(owner, issuer, p.role)) {
      return true;
    }
  }
  return false;
}

}  // namespace peb
