// Output checks shared by every workload.
//
// Each response is checked twice over:
//  * on arrival, for the properties every GB-MQO answer must have — one
//    table per requested set, COUNT(*) totalling |R_v|, and, per client, a
//    base_version that never decreases;
//  * the first response for each (request, base_version) is answered again
//    by the reference aggregator (reference.h) after the timed phase, and
//    every repeat of it is compared with that checked response. A repeat
//    that is not bit-identical to it is answered by the reference as well.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "core/plan_executor.h"
#include "core/request.h"
#include "reference.h"
#include "storage/table.h"

namespace perfbench {

/// Copies an engine table's values into the reference row store.
void AppendRows(const gbmqo::Table& table, RefTable* out);
std::vector<RefValue> ToRefRow(const std::vector<gbmqo::Value>& row);

/// Compares one engine result table with the reference answer of `request`.
/// Returns "" when they agree, else a description of the first difference.
std::string CompareWithReference(const gbmqo::Table& got,
                                 const gbmqo::Schema& base_schema,
                                 const gbmqo::GroupByRequest& request,
                                 const RefResult& want);

/// The rows of `table` projected on `request`'s grouping and aggregate
/// columns, as exact strings (doubles by bit pattern) and sorted, so two
/// answers holding the same rows in any order or layout compare equal.
std::vector<std::string> CanonicalRows(const gbmqo::Table& table,
                                       const gbmqo::Schema& base_schema,
                                       const gbmqo::GroupByRequest& request);

/// Checks the responses of one workload over one base relation. Thread
/// safe: several clients report into one checker.
class ResponseChecker {
 public:
  /// `base_rows` rows at version 0; version v adds v * `batch_rows` rows.
  ResponseChecker(gbmqo::Schema schema, uint64_t base_rows, uint64_t batch_rows)
      : schema_(std::move(schema)), base_rows_(base_rows), batch_rows_(batch_rows) {}

  uint64_t RowsAt(uint64_t version) const { return base_rows_ + version * batch_rows_; }

  /// Checks one response on arrival. `client` identifies the caller for the
  /// monotone base_version property. Returns "" or the first violation.
  std::string OnResponse(int client,
                         const std::vector<gbmqo::GroupByRequest>& requests,
                         const gbmqo::ExecutionResult& result);

  /// Answers every kept response with the reference aggregator over
  /// `input` (whose rows are the base rows followed by the batches in
  /// order). Returns the number of result tables checked in all, or -1 and
  /// sets `error` on the first mismatch.
  int64_t VerifyAgainstReference(const RefTable& input, std::string* error);

  /// Repeats that differed in some bit from every earlier answer to the
  /// same (request, base_version).
  uint64_t variants() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return variants_;
  }

 private:
  /// (columns mask, aggregate list, base_version).
  using Key = std::tuple<uint64_t, std::string, uint64_t>;
  /// Every distinct answer seen for one key: the first, then each repeat
  /// that was not bit-identical to any before it.
  struct First {
    gbmqo::GroupByRequest request;
    std::vector<gbmqo::TablePtr> tables;
    std::vector<std::vector<std::string>> canonical;  ///< per table; built on demand
  };

  gbmqo::Schema schema_;
  uint64_t base_rows_;
  uint64_t batch_rows_;
  mutable std::mutex mu_;
  std::map<Key, First> first_;               // guarded by mu_
  uint64_t variants_ = 0;                    // guarded by mu_
  std::map<int, uint64_t> client_version_;   // guarded by mu_
};

/// Text of a request's aggregate list, in request order.
std::string AggSignature(const std::vector<gbmqo::AggRequest>& aggs);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
