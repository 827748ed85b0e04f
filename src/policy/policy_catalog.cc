#include "policy/policy_catalog.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <unordered_set>

namespace peb {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Appends the deduplicated, ascending user ids of `raw` that are < n.
std::vector<UserId> SortedUniqueBelow(std::vector<UserId> raw, size_t n) {
  std::sort(raw.begin(), raw.end());
  raw.erase(std::unique(raw.begin(), raw.end()), raw.end());
  while (!raw.empty() && raw.back() >= n) raw.pop_back();
  return raw;
}

}  // namespace

PolicyCatalog::PolicyCatalog(PolicyStore store, RoleRegistry roles,
                             CatalogOptions options)
    : options_(options),
      quantizer_(options.sv_scale, options.sv_bits),
      store_(std::move(store)),
      roles_(std::move(roles)) {
  auto t0 = std::chrono::steady_clock::now();
  // Uncontended (no other thread can see the catalog yet); taken so the
  // thread-safety analysis covers the guarded-member writes below.
  MutexLock lock(&mu_);
  snapshot_ = std::make_shared<const EncodingSnapshot>(EncodingSnapshot::Build(
      store_, options_.num_users, options_.compat, options_.sv, quantizer_,
      options_.strategy));
  build_seconds_ = SecondsSince(t0);
  for (size_t u = 0; u < options_.num_users; ++u) {
    max_sv_ = std::max(max_sv_, snapshot_->sv(static_cast<UserId>(u)));
  }
}

std::shared_ptr<const EncodingSnapshot> PolicyCatalog::snapshot() const {
  MutexLock lock(&mu_);
  return snapshot_;
}

uint64_t PolicyCatalog::epoch() const {
  MutexLock lock(&mu_);
  return snapshot_->epoch();
}

size_t PolicyCatalog::dirty_count() const {
  MutexLock lock(&mu_);
  std::unordered_set<UserId> unique(dirty_.begin(), dirty_.end());
  return unique.size();
}

Status PolicyCatalog::ValidatePair(UserId owner, UserId peer) const {
  if (owner >= options_.num_users || peer >= options_.num_users) {
    return Status::InvalidArgument(
        "policy endpoints must lie inside the catalog population");
  }
  if (owner == peer) {
    return Status::InvalidArgument("a user cannot hold a policy toward "
                                   "themselves");
  }
  return Status::OK();
}

Status PolicyCatalog::AddPolicy(UserId owner, UserId peer,
                                const Lpp& policy) {
  PEB_RETURN_NOT_OK(ValidatePair(owner, peer));
  MutexLock lock(&mu_);
  if (policy.role == kInvalidRoleId ||
      policy.role >= roles_.num_roles()) {
    return Status::InvalidArgument("policy references an unregistered role");
  }
  store_.Add(owner, peer, policy);
  // The grant must be satisfiable: owner declares peer to hold the role
  // (Definition 1), mirroring the synthetic policy generator.
  roles_.AssignRole(owner, peer, policy.role);
  dirty_.push_back(owner);
  dirty_.push_back(peer);
  list_dirty_.push_back(peer);
  return Status::OK();
}

Result<size_t> PolicyCatalog::RemovePolicies(UserId owner, UserId peer) {
  PEB_RETURN_NOT_OK(ValidatePair(owner, peer));
  MutexLock lock(&mu_);
  size_t removed = store_.RemoveAll(owner, peer);
  if (removed > 0) {
    dirty_.push_back(owner);
    dirty_.push_back(peer);
    list_dirty_.push_back(peer);
  }
  return removed;
}

RoleId PolicyCatalog::DefineRole(const std::string& name) {
  MutexLock lock(&mu_);
  return roles_.RegisterRole(name);
}

Status PolicyCatalog::AssignRole(UserId owner, UserId peer, RoleId role) {
  PEB_RETURN_NOT_OK(ValidatePair(owner, peer));
  MutexLock lock(&mu_);
  if (role >= roles_.num_roles()) {
    return Status::InvalidArgument("unregistered role");
  }
  roles_.AssignRole(owner, peer, role);
  return Status::OK();
}

Status PolicyCatalog::RevokeRole(UserId owner, UserId peer, RoleId role) {
  PEB_RETURN_NOT_OK(ValidatePair(owner, peer));
  MutexLock lock(&mu_);
  roles_.RevokeRole(owner, peer, role);
  return Status::OK();
}

std::vector<UserId> PolicyCatalog::RelatedTo(UserId u) const {
  std::vector<UserId> related(CandidateBound(store_, u));
  related.resize(
      CollectCandidates(store_, u, options_.num_users, related.data()));
  std::erase_if(related, [&](UserId v) {
    return !(Compatibility(store_, u, v, options_.compat) > 0.0);
  });
  return related;
}

Result<ReencodeResult> PolicyCatalog::Reencode() {
  MutexLock lock(&mu_);
  auto t0 = std::chrono::steady_clock::now();

  ReencodeResult out;
  std::vector<UserId> dirty = SortedUniqueBelow(dirty_, options_.num_users);
  if (dirty.empty()) {
    // Clean catalog: nothing to do, epoch unchanged.
    out.snapshot = snapshot_;
    out.stats.epoch = snapshot_->epoch();
    out.stats.seconds = SecondsSince(t0);
    return out;
  }

  // --- 1. affected components: BFS outward from the dirty users ------------
  // Adjacency is computed lazily from the live store, so the walk costs
  // O(edges of the affected components), not O(all policies). Components
  // are closed under adjacency, so the induced subgraph is exactly a union
  // of whole components of the current relatedness graph.
  std::unordered_map<UserId, std::vector<UserId>> adjacency;
  std::vector<UserId> frontier;
  for (UserId seed : dirty) {
    if (adjacency.contains(seed)) continue;
    adjacency.emplace(seed, std::vector<UserId>{});
    frontier.push_back(seed);
    while (!frontier.empty()) {
      UserId u = frontier.back();
      frontier.pop_back();
      std::vector<UserId> related = RelatedTo(u);
      for (UserId v : related) {
        if (adjacency.try_emplace(v).second) frontier.push_back(v);
      }
      adjacency[u] = std::move(related);
    }
  }

  // Local subgraph ids follow ASCENDING GLOBAL ID, so the assignment's
  // degree-tie ordering matches a genuine Figure-5 run over the subgraph
  // (the equivalence the tests pin down).
  std::vector<UserId> affected;
  affected.reserve(adjacency.size());
  for (const auto& [u, related] : adjacency) affected.push_back(u);
  std::sort(affected.begin(), affected.end());
  size_t m = affected.size();
  std::unordered_map<UserId, size_t> local;
  local.reserve(m);
  for (size_t i = 0; i < m; ++i) local.emplace(affected[i], i);

  std::vector<std::vector<UserId>> groups(m);
  for (size_t i = 0; i < m; ++i) {
    const std::vector<UserId>& related = adjacency.at(affected[i]);
    groups[i].reserve(related.size());
    for (UserId v : related) {
      groups[i].push_back(static_cast<UserId>(local.at(v)));
    }
    std::sort(groups[i].begin(), groups[i].end());
  }
  const RelatednessGraph subgraph = RelatednessGraph::FromLists(groups);
  auto compat_local = [&](UserId a, UserId b) {
    return Compatibility(store_, affected[a], affected[b], options_.compat);
  };

  // --- 2. Figure-5 (or BFS) re-assignment of the subgraph -------------------
  // Placed in fresh SV space above every existing value: the assignment is
  // translation-invariant, so these are exactly the values a full run over
  // the subgraph would produce, shifted to the fresh base — and untouched
  // users keep their SVs verbatim.
  SequenceValueOptions sub_options = options_.sv;
  sub_options.initial_sv = max_sv_ + options_.sv.delta;
  SequenceAssignment sub =
      options_.strategy == SequenceStrategy::kGroupOrder
          ? AssignSequenceValuesFromGraph(subgraph, compat_local, sub_options)
          : AssignSequenceValuesBfsFromGraph(subgraph, compat_local,
                                             sub_options);

  // --- 3. derive the new snapshot copy-on-write -----------------------------
  auto next = std::make_shared<EncodingSnapshot>(*snapshot_);
  next->epoch_ = snapshot_->epoch() + 1;
  std::vector<UserId> sv_changed;
  for (size_t i = 0; i < m; ++i) {
    UserId u = affected[i];
    double new_sv = sub.sv[i];
    max_sv_ = std::max(max_sv_, new_sv);
    if (new_sv != next->sv_[u]) sv_changed.push_back(u);
    uint32_t new_qsv = quantizer_.Quantize(new_sv);
    if (new_qsv != next->qsv_[u]) out.rekeyed.push_back(u);
    next->sv_[u] = new_sv;
    next->qsv_[u] = new_qsv;
  }

  // --- 4. rebuild exactly the friend lists that changed ---------------------
  // A user's list changes when their incoming edge set changed (mutation
  // peers) or when an incoming owner's SV moved.
  std::vector<UserId> rebuild = list_dirty_;
  for (UserId u : sv_changed) {
    for (UserId peer : store_.PeersOf(u)) rebuild.push_back(peer);
  }
  rebuild = SortedUniqueBelow(std::move(rebuild), options_.num_users);
  for (UserId v : rebuild) {
    auto list = std::make_shared<std::vector<FriendEntry>>(
        store_.OwnersToward(v).size());
    next->FillFriendList(store_, v, *list);
    next->friends_[v] = std::move(list);
  }

  // --- 5. publish -----------------------------------------------------------
  std::sort(out.rekeyed.begin(), out.rekeyed.end());
  snapshot_ = next;
  dirty_.clear();
  list_dirty_.clear();

  out.snapshot = snapshot_;
  out.stats.epoch = snapshot_->epoch();
  out.stats.dirty_users = dirty.size();
  out.stats.component_users = m;
  out.stats.rekeyed = out.rekeyed.size();
  out.stats.lists_rebuilt = rebuild.size();
  out.stats.seconds = SecondsSince(t0);
  return out;
}

Result<ReencodeResult> PolicyCatalog::RebuildFull() {
  MutexLock lock(&mu_);
  auto t0 = std::chrono::steady_clock::now();

  auto next = std::make_shared<EncodingSnapshot>(EncodingSnapshot::Build(
      store_, options_.num_users, options_.compat, options_.sv, quantizer_,
      options_.strategy));
  next->epoch_ = snapshot_->epoch() + 1;

  ReencodeResult out;
  for (size_t u = 0; u < options_.num_users; ++u) {
    UserId uid = static_cast<UserId>(u);
    if (next->quantized_sv(uid) != snapshot_->quantized_sv(uid)) {
      out.rekeyed.push_back(uid);
    }
  }
  max_sv_ = 0.0;
  for (size_t u = 0; u < options_.num_users; ++u) {
    max_sv_ = std::max(max_sv_, next->sv(static_cast<UserId>(u)));
  }
  snapshot_ = std::move(next);
  std::unordered_set<UserId> unique_dirty(dirty_.begin(), dirty_.end());
  out.stats.dirty_users = unique_dirty.size();
  dirty_.clear();
  list_dirty_.clear();

  out.snapshot = snapshot_;
  out.stats.epoch = snapshot_->epoch();
  out.stats.component_users = options_.num_users;
  out.stats.rekeyed = out.rekeyed.size();
  out.stats.lists_rebuilt = options_.num_users;
  out.stats.full_rebuild = true;
  out.stats.seconds = SecondsSince(t0);
  return out;
}

}  // namespace peb
