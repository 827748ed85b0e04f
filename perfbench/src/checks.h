// Answer checks against the Bx-tree + policy-filtering baseline, an index
// whose keys do not depend on the PEB-tree's policy encoding, so a bug in
// the encoding, the key layout or the engine cannot hide in both.
#pragma once

#include <cstddef>

#include "open_loop.h"
#include "service/service.h"

namespace perfbench {

class AnswerChecker {
 public:
  /// `corrupt_first` alters the first checked answer before comparing it:
  /// the self-test's proof that a wrong answer fails the run.
  AnswerChecker(peb::service::MovingObjectService* baseline,
                bool corrupt_first)
      : baseline_(baseline), corrupt_next_(corrupt_first) {}

  /// Compares an answer the system gave with the baseline's answer to the
  /// same request, executed now (the caller keeps both indexes at the same
  /// state).
  void Check(const peb::service::QueryRequest& request,
             peb::service::QueryResponse answer, const char* where);

  /// Runs the first `prq` PRQs and `knn` PkNNs of `corpus` on `system` and
  /// checks each answer.
  void CheckCorpus(peb::service::MovingObjectService& system,
                   const QueryCorpus& corpus, size_t prq, size_t knn,
                   const char* where);

  size_t mismatches() const { return mismatches_; }
  size_t failed() const { return failed_; }
  /// Answers this checker asked the system for.
  size_t attempted() const { return checked_ + failed_; }

 private:
  peb::service::MovingObjectService* baseline_;
  bool corrupt_next_;
  size_t checked_ = 0;
  size_t mismatches_ = 0;
  size_t failed_ = 0;
};

}  // namespace perfbench
