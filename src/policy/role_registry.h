// RoleRegistry: who stands in which relationship to whom.
//
// Inspired by Role-Based Access Control (the paper cites Ferraiolo & Kuhn
// [7]): a user `owner` assigns a role (friend / colleague / family ...) to a
// peer, and policies reference the role instead of individual users. The
// PRQ/PkNN condition "qID ∈ role" (Definitions 2-3) is exactly
// HasRole(owner, qID, role).
//
// Layout: one row per owner, found through a map keyed by owner id, holding
// the owner's (peer, role) assignments ascending; a lookup binary-searches
// the row.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace peb {

class RoleRegistry {
 public:
  /// Registers (or finds) a role by name; role names are global.
  RoleId RegisterRole(const std::string& name);

  /// Name of a registered role id (empty when unknown).
  const std::string& RoleName(RoleId id) const;

  /// Number of registered roles.
  size_t num_roles() const { return names_.size(); }

  /// Records that `owner` considers `peer` to hold `role`.
  void AssignRole(UserId owner, UserId peer, RoleId role);

  /// Removes a role assignment (no-op when absent).
  void RevokeRole(UserId owner, UserId peer, RoleId role);

  /// True iff `owner` has assigned `role` to `peer`.
  bool HasRole(UserId owner, UserId peer, RoleId role) const;

  /// All roles `owner` has assigned to `peer`, ascending.
  std::vector<RoleId> RolesOf(UserId owner, UserId peer) const;

  /// Total number of (owner, peer, role) assignments.
  size_t num_assignments() const { return num_assignments_; }

 private:
  struct Assignment {
    UserId peer;
    RoleId role;
    friend auto operator<=>(const Assignment&, const Assignment&) = default;
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, RoleId> by_name_;
  /// Keyed by owner: the owner's assignments, ascending by (peer, role).
  std::unordered_map<UserId, std::vector<Assignment>> assignments_;
  size_t num_assignments_ = 0;
};

}  // namespace peb
