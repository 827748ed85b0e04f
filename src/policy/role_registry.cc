#include "policy/role_registry.h"

#include <algorithm>

namespace peb {

namespace {
const std::string kEmpty;
}  // namespace

RoleId RoleRegistry::RegisterRole(const std::string& name) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  RoleId id = static_cast<RoleId>(names_.size());
  names_.push_back(name);
  by_name_.emplace(name, id);
  return id;
}

const std::string& RoleRegistry::RoleName(RoleId id) const {
  return id < names_.size() ? names_[id] : kEmpty;
}

void RoleRegistry::AssignRole(UserId owner, UserId peer, RoleId role) {
  std::vector<Assignment>& row = assignments_[owner];
  const Assignment a{peer, role};
  auto it = std::lower_bound(row.begin(), row.end(), a);
  if (it == row.end() || *it != a) {
    row.insert(it, a);
    num_assignments_++;
  }
}

void RoleRegistry::RevokeRole(UserId owner, UserId peer, RoleId role) {
  auto found = assignments_.find(owner);
  if (found == assignments_.end()) return;
  std::vector<Assignment>& row = found->second;
  const Assignment a{peer, role};
  auto it = std::lower_bound(row.begin(), row.end(), a);
  if (it == row.end() || *it != a) return;
  row.erase(it);
  num_assignments_--;
  if (row.empty()) assignments_.erase(found);
}

bool RoleRegistry::HasRole(UserId owner, UserId peer, RoleId role) const {
  auto found = assignments_.find(owner);
  return found != assignments_.end() &&
         std::binary_search(found->second.begin(), found->second.end(),
                            Assignment{peer, role});
}

std::vector<RoleId> RoleRegistry::RolesOf(UserId owner, UserId peer) const {
  std::vector<RoleId> roles;
  auto found = assignments_.find(owner);
  if (found == assignments_.end()) return roles;
  auto it = std::lower_bound(found->second.begin(), found->second.end(),
                             Assignment{peer, 0});
  for (; it != found->second.end() && it->peer == peer; ++it) {
    roles.push_back(it->role);
  }
  return roles;
}

}  // namespace peb
