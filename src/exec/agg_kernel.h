// Adaptive aggregation-kernel selection.
//
// GB-MQO's required group-bys mostly run over *small materialized
// intermediates*, where the grouping columns' combined code domain is tiny.
// PlanAggKernel inspects the input columns' code-domain metadata
// (Column::CodeBits / CodeRange) and walks a fallback ladder:
//
//   1. kDenseArray — if the product of per-column radixes (code range + 1,
//      plus a NULL slot for nullable columns) fits kDenseSlotBudget, group
//      lookup is a direct index into a dense slot array: no hashing, no key
//      compares.
//   2. kPackedKey / kSortRuns — if the per-column bit-widths (plus one NULL
//      bit per nullable column) sum to <= 64, all grouping columns are
//      bit-packed into a single uint64 key. Small estimated group counts
//      build a one-word GroupHashTable (kPackedKey); past the hash-vs-sort
//      crossover (kSortCrossoverGroups) the same packed keys are instead
//      sorted and folded run-by-run (kSortRuns), trading the hash build's
//      cache-miss-dominated probes for a comparison sort.
//   3. kMultiWord  — the general case: one key word per grouping column
//      plus a null-mask word, exactly the layout KeyBuilder produces.
//
// The plan is a pure function of (input table, grouping set) — never of the
// thread count — so all WorkCounters stay bit-identical across parallelism.
// BlockKeyFiller then builds keys/slots in 1024-row column-major blocks with
// one type dispatch per column per block instead of one per row.
// Statistics may pass compacted column domains (ColumnDomain) to key on
// instead of raw codes; execution never does, so its kernel choice and work
// counters stay a function of the input's code ranges alone.
#ifndef GBMQO_EXEC_AGG_KERNEL_H_
#define GBMQO_EXEC_AGG_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/column_set.h"
#include "exec/exec_context.h"
#include "exec/simd.h"
#include "storage/table.h"

namespace gbmqo {

/// Dense-array slot budget: caps the per-shard slot array at 1 MiB of
/// 4-byte tags, the scale at which direct indexing stays cache-resident and
/// beats hashing. Domain products above this fall back to a hash kernel.
inline constexpr uint64_t kDenseSlotBudget = 1ull << 18;

/// Hash-vs-sort crossover: when the estimated group count — the smaller of
/// the input row count and the packed key domain — exceeds this, the auto
/// ladder picks kSortRuns over kPackedKey. At this scale most hash probes
/// miss cache while the sort's sequential passes do not (the regime mapped
/// by the hash-vs-sort literature); below it the hash build is cheaper.
/// Mirrored by OptimizerCostModel's CostParams::sort_crossover_groups so
/// plans price the kernel the executor will actually run.
inline constexpr uint64_t kSortCrossoverGroups = 1ull << 20;

/// A compacted code domain for one column: a dense id per row in
/// [0, radix), keyed on in place of the column's codes. The ids carry NULL
/// as one more id, so a column keyed this way is NULL-free to the kernels.
struct ColumnDomain {
  const uint32_t* ids = nullptr;  ///< nullptr: key on the column's codes
  uint32_t radix = 0;             ///< number of distinct ids
};

/// Per-grouping-column packing/indexing parameters.
struct KernelColumn {
  const Column* col = nullptr;
  const uint32_t* ids = nullptr;  ///< compacted domain ids, read for codes
  uint64_t code_min = 0;  ///< offset subtracted from every code
  uint64_t range = 0;     ///< largest offset code (Column::CodeRange)
  int bits = 0;           ///< exact value bit-width (Column::CodeBits)
  int shift = 0;          ///< packed: bit position of the value field
  int null_bit = -1;      ///< packed: bit position of the NULL flag (-1: none)
  uint32_t radix = 1;     ///< dense: per-column domain size (incl. NULL slot)
  uint32_t stride = 1;    ///< dense: mixed-radix multiplier
  bool nullable = false;  ///< column has NULLs
};

/// The kernel chosen for one (input, grouping) pair plus everything the
/// block key builder needs.
struct AggKernelPlan {
  AggKernel kernel = AggKernel::kMultiWord;
  std::vector<KernelColumn> cols;
  bool track_nulls = false;     ///< multi-word: a null-mask word is appended
  int key_width = 1;            ///< key words per row (1 for packed)
  int total_bits = 0;           ///< packed: value + NULL bits used (<= 64)
  uint64_t dense_capacity = 0;  ///< dense: power-of-two padded slot count
};

/// Plans the kernel for `grouping` over `input`. `preferred` is where the
/// fallback ladder starts (the test/bench forcing knob): kDenseArray tries
/// the whole ladder (including the sort crossover), kPackedKey skips dense
/// and pins the hash side of the crossover, kSortRuns pins the sort side
/// (packed-eligible inputs only), kMultiWord forces the general kernel.
/// An ineligible preference falls through to the next rung, so forcing is
/// always safe. `domains`, when given, holds one entry per input column (by
/// ordinal); a column whose entry has ids keys on them, with range
/// radix - 1 and no NULL slot. `dense_budget` (<= 2^31) caps the dense
/// rung's slot count.
AggKernelPlan PlanAggKernel(const Table& input, ColumnSet grouping,
                            AggKernel preferred = AggKernel::kDenseArray,
                            const ColumnDomain* domains = nullptr,
                            uint64_t dense_budget = kDenseSlotBudget);

/// Builds group keys (or dense slots) for row blocks, column-major: per
/// block, each grouping column is read through one Column::CodeBlock call
/// (a single type switch), then packed/indexed in a tight per-column loop.
/// One filler per worker; not thread-safe (holds a scratch code buffer).
class BlockKeyFiller {
 public:
  /// Rows per block: small enough that codes + keys stay L1-resident.
  static constexpr size_t kBlockRows = 1024;

  /// `simd` selects the packing loops (exec/simd.h). All key formation is
  /// pure integer arithmetic, so every tier produces bit-identical keys;
  /// the knob only changes speed.
  explicit BlockKeyFiller(const AggKernelPlan& plan,
                          SimdLevel simd = DetectedSimdLevel())
      : plan_(&plan), simd_(simd), codes_(kBlockRows) {}

  /// Packed kernel: out[i] = single-word key of row begin+i. NULL rows
  /// contribute a set NULL bit and zero value bits (count <= kBlockRows).
  void FillPacked(size_t begin, size_t count, uint64_t* out);

  /// Dense kernel: out[i] = mixed-radix slot of row begin+i, in
  /// [0, dense_capacity). NULLs take slot 0 of their column's radix.
  void FillDense(size_t begin, size_t count, uint32_t* out);

  /// Multi-word kernel: out[i * key_width ..] = key of row begin+i, in
  /// exactly the layout KeyBuilder::FillKey produces (codes, then a
  /// null-mask word when track_nulls).
  void FillMultiWord(size_t begin, size_t count, uint64_t* out);

  /// Hash kernels (every rung but dense): FillMultiWord for kMultiWord
  /// plans, else FillPacked — key_width words per row either way.
  void FillHashKeys(size_t begin, size_t count, uint64_t* out) {
    if (plan_->kernel == AggKernel::kMultiWord) {
      FillMultiWord(begin, count, out);
    } else {
      FillPacked(begin, count, out);
    }
  }

 private:
  /// codes_[0..count) = kc's codes (or domain ids) for rows from begin.
  void LoadCodes(const KernelColumn& kc, size_t begin, size_t count) {
    if (kc.ids != nullptr) {
      std::copy_n(kc.ids + begin, count, codes_.data());
    } else {
      kc.col->CodeBlock(begin, count, codes_.data());
    }
  }

  const AggKernelPlan* plan_;
  SimdLevel simd_;
  std::vector<uint64_t> codes_;  // scratch: one column's codes for a block
};

}  // namespace gbmqo

#endif  // GBMQO_EXEC_AGG_KERNEL_H_
