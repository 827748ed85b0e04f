// Shared scalar types used across the library.
#pragma once

#include <cstdint>
#include <limits>

namespace peb {

/// User / moving-object identifier (the paper's UID).
using UserId = uint32_t;

/// Sentinel for "no user".
inline constexpr UserId kInvalidUserId = std::numeric_limits<UserId>::max();

/// Simulation timestamps are continuous (the paper's time unit is minutes).
using Timestamp = double;

/// Page identifier within a disk file.
using PageId = uint32_t;

/// Sentinel for "no page" (used as null child / sibling pointer).
inline constexpr PageId kInvalidPageId = std::numeric_limits<PageId>::max();

/// Role identifier for privacy policies (e.g. friend / colleague / family).
using RoleId = uint16_t;

inline constexpr RoleId kInvalidRoleId = std::numeric_limits<RoleId>::max();

}  // namespace peb
