// Delivery oracle: compares what a subscriber received with what its table
// says it is owed, path by path.
//
// Every sent document is registered with the path ids the reference table
// wants; every arrival is logged as (document, path). judge() then reports
// missed deliveries (owed, never arrived), spurious ones (arrived, not
// owed, including documents never sent) and duplicates (the same path of
// the same document more than once). A document fails if any of its paths
// does; the run's failed count is the number of failed documents.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

namespace perfbench {

class DeliveryOracle {
 public:
  struct Verdict {
    std::uint64_t docs = 0;
    /// Documents owed at least one path.
    std::uint64_t owed_docs = 0;
    std::uint64_t owed_paths = 0;
    std::uint64_t missed = 0;
    std::uint64_t spurious = 0;
    std::uint64_t duplicates = 0;
    /// Documents with at least one missed, spurious or duplicate path.
    std::uint64_t failed_docs = 0;
    bool ok() const { return missed == 0 && spurious == 0 && duplicates == 0; }
  };

  /// Registers document `doc` (ids dense from 0) as owed `paths`.
  void expect(std::uint64_t doc, std::vector<std::uint32_t> paths) {
    if (doc >= expected_.size()) expected_.resize(doc + 1);
    std::sort(paths.begin(), paths.end());
    expected_[doc] = std::move(paths);
    sent_.insert(doc);
  }

  void arrived(std::uint64_t doc, std::uint32_t path) {
    arrivals_.emplace_back(doc, path);
  }

  const std::vector<std::uint32_t>& owed(std::uint64_t doc) const {
    return expected_[doc];
  }

  Verdict judge() const {
    Verdict v;
    v.docs = sent_.size();
    std::vector<std::pair<std::uint64_t, std::uint32_t>> got = arrivals_;
    std::sort(got.begin(), got.end());
    std::set<std::uint64_t> failed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const auto [doc, path] = got[i];
      if (i > 0 && got[i - 1] == got[i]) {
        ++v.duplicates;
        failed.insert(doc);
        continue;
      }
      const bool owed = sent_.count(doc) != 0 &&
                        std::binary_search(expected_[doc].begin(),
                                           expected_[doc].end(), path);
      if (!owed) {
        ++v.spurious;
        failed.insert(doc);
      }
    }
    for (std::uint64_t doc : sent_) {
      v.owed_docs += expected_[doc].empty() ? 0 : 1;
      for (std::uint32_t path : expected_[doc]) {
        ++v.owed_paths;
        if (!std::binary_search(got.begin(), got.end(),
                                std::make_pair(doc, path))) {
          ++v.missed;
          failed.insert(doc);
        }
      }
    }
    v.failed_docs = failed.size();
    return v;
  }

 private:
  std::vector<std::vector<std::uint32_t>> expected_;
  std::set<std::uint64_t> sent_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> arrivals_;
};

}  // namespace perfbench
