#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

using peb::service::QueryKind;
using peb::service::QueryRequest;
using peb::service::QueryResponse;

namespace {

/// PRQ answers must be the same id list. PkNN answers must have the same
/// length and the same distance at every rank; ids may differ only among
/// neighbors tied at equal distance, so ids are compared per distinct
/// distance group.
bool SameAnswer(const QueryResponse& a, const QueryResponse& b) {
  if (a.kind == QueryKind::kRangeQuery) return a.ids == b.ids;
  if (a.neighbors.size() != b.neighbors.size()) return false;
  constexpr double kTol = 1e-6;
  for (size_t i = 0; i < a.neighbors.size(); ++i) {
    if (std::abs(a.neighbors[i].distance - b.neighbors[i].distance) > kTol) {
      return false;
    }
  }
  auto sorted_ids = [](const QueryResponse& r, size_t lo, size_t hi) {
    std::vector<peb::UserId> ids;
    for (size_t i = lo; i < hi; ++i) ids.push_back(r.neighbors[i].uid);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  for (size_t lo = 0; lo < a.neighbors.size();) {
    size_t hi = lo + 1;
    while (hi < a.neighbors.size() &&
           std::abs(a.neighbors[hi].distance - a.neighbors[lo].distance) <=
               kTol) {
      ++hi;
    }
    // A tie group cut by the k boundary may legitimately pick different
    // members; only complete groups must agree.
    if (hi < a.neighbors.size() && sorted_ids(a, lo, hi) !=
                                       sorted_ids(b, lo, hi)) {
      return false;
    }
    lo = hi;
  }
  return true;
}

void Corrupt(QueryResponse* r) {
  if (r->kind == QueryKind::kRangeQuery) {
    r->ids.push_back(static_cast<peb::UserId>(r->ids.size()));
  } else if (r->neighbors.empty()) {
    r->neighbors.push_back({0, 0.0});
  } else {
    r->neighbors.front().distance += 1.0;
  }
}

}  // namespace

void AnswerChecker::Check(const QueryRequest& request, QueryResponse answer,
                          const char* where) {
  QueryResponse expected = baseline_->Execute(request);
  if (!answer.ok() || !expected.ok()) {
    ++failed_;
    std::fprintf(stderr, "check (%s): query failed: %s / %s\n", where,
                 answer.status.ToString().c_str(),
                 expected.status.ToString().c_str());
    return;
  }
  if (corrupt_next_) {
    Corrupt(&answer);
    corrupt_next_ = false;
  }
  ++checked_;
  if (!SameAnswer(answer, expected)) {
    ++mismatches_;
    std::fprintf(stderr,
                 "check (%s): %s answer of issuer %u differs from the "
                 "baseline (%zu vs %zu entries)\n",
                 where, request.kind == QueryKind::kRangeQuery ? "PRQ" : "PkNN",
                 static_cast<unsigned>(request.issuer),
                 answer.ids.size() + answer.neighbors.size(),
                 expected.ids.size() + expected.neighbors.size());
  }
}

void AnswerChecker::CheckCorpus(peb::service::MovingObjectService& system,
                                const QueryCorpus& corpus, size_t prq,
                                size_t knn, const char* where) {
  for (size_t i = 0; i < prq && i < corpus.prq.size(); ++i) {
    const auto& q = corpus.prq[i];
    const QueryRequest r = QueryRequest::Prq(q.issuer, q.range, q.tq);
    Check(r, system.Execute(r), where);
  }
  for (size_t i = 0; i < knn && i < corpus.knn.size(); ++i) {
    const auto& q = corpus.knn[i];
    const QueryRequest r = QueryRequest::Pknn(q.issuer, q.qloc, q.k, q.tq);
    Check(r, system.Execute(r), where);
  }
}

}  // namespace perfbench
