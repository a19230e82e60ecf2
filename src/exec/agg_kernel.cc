#include "exec/agg_kernel.h"

#include <algorithm>
#include <bit>

namespace gbmqo {

AggKernelPlan PlanAggKernel(const Table& input, ColumnSet grouping,
                            AggKernel preferred, const ColumnDomain* domains,
                            uint64_t dense_budget) {
  AggKernelPlan plan;
  for (int ordinal : grouping.ToVector()) {
    const Column& col = input.column(ordinal);
    KernelColumn kc;
    kc.col = &col;
    if (domains != nullptr && domains[ordinal].ids != nullptr) {
      kc.ids = domains[ordinal].ids;
      kc.range = domains[ordinal].radix - 1;
      kc.bits = static_cast<int>(std::bit_width(kc.range));
    } else {
      kc.code_min = col.CodeRangeMin();
      kc.range = col.CodeRange();
      kc.bits = col.CodeBits();
      kc.nullable = col.has_nulls();
    }
    if (kc.nullable) plan.track_nulls = true;
    plan.cols.push_back(kc);
  }
  plan.key_width =
      static_cast<int>(plan.cols.size()) + (plan.track_nulls ? 1 : 0);
  if (plan.key_width == 0) plan.key_width = 1;  // empty grouping: constant key

  if (preferred == AggKernel::kDenseArray) {
    // Dense eligibility: the mixed-radix product of per-column domains must
    // fit the slot budget. Bail on any factor >= budget before forming
    // radix = range + 1 (+ NULL slot), so nothing here can overflow: every
    // partial product and factor stays <= dense_budget + 1 < 2^32.
    uint64_t slots = 1;
    bool ok = true;
    for (const KernelColumn& kc : plan.cols) {
      if (kc.range >= dense_budget) {
        ok = false;
        break;
      }
      slots *= kc.range + 1 + (kc.nullable ? 1 : 0);
      if (slots > dense_budget) {
        ok = false;
        break;
      }
    }
    if (ok) {
      plan.kernel = AggKernel::kDenseArray;
      uint32_t stride = 1;
      for (KernelColumn& kc : plan.cols) {
        kc.radix =
            static_cast<uint32_t>(kc.range + 1 + (kc.nullable ? 1 : 0));
        kc.stride = stride;
        stride *= kc.radix;
      }
      // Pad to a power of two >= 64 so the merge can partition the slot
      // space into equal contiguous ranges (DenseGroupTable::
      // PartitionOfSlot) for any partition count up to 64.
      plan.dense_capacity = std::bit_ceil(std::max<uint64_t>(slots, 64));
      return plan;
    }
  }

  if (preferred != AggKernel::kMultiWord) {
    // Packed eligibility: value bits + one NULL bit per nullable column
    // must fit one word. Layout: value fields low-to-high in column order,
    // then the NULL bits. kSortRuns shares the layout — it sorts the very
    // same packed words — so eligibility is identical.
    int bits = 0;
    for (const KernelColumn& kc : plan.cols) {
      bits += kc.bits + (kc.nullable ? 1 : 0);
    }
    if (bits <= 64) {
      int shift = 0;
      for (KernelColumn& kc : plan.cols) {
        kc.shift = shift;
        shift += kc.bits;
      }
      for (KernelColumn& kc : plan.cols) {
        if (kc.nullable) kc.null_bit = shift++;
      }
      plan.total_bits = shift;
      plan.key_width = 1;
      if (preferred == AggKernel::kSortRuns) {
        plan.kernel = AggKernel::kSortRuns;
      } else if (preferred == AggKernel::kDenseArray) {
        // Auto ladder: hash-vs-sort crossover. The group count is at most
        // the smaller of the row count and the packed key domain (2 ^
        // total_bits, saturated); only past the crossover does the hash
        // build's miss-dominated tail lose to the sort. Forcing kPackedKey
        // pins the hash side, so the crossover never flips a forced run.
        const uint64_t domain =
            plan.total_bits >= 64 ? UINT64_MAX : (1ull << plan.total_bits);
        const uint64_t est_groups = std::min<uint64_t>(input.num_rows(), domain);
        plan.kernel = est_groups > kSortCrossoverGroups
                          ? AggKernel::kSortRuns
                          : AggKernel::kPackedKey;
      } else {
        plan.kernel = AggKernel::kPackedKey;
      }
      return plan;
    }
  }

  plan.kernel = AggKernel::kMultiWord;
  return plan;
}

void BlockKeyFiller::FillPacked(size_t begin, size_t count, uint64_t* out) {
  std::fill(out, out + count, 0);
  for (const KernelColumn& kc : plan_->cols) {
    if (kc.bits == 0 && !kc.nullable) continue;  // single-valued: no bits
    LoadCodes(kc, begin, count);
    const uint64_t min = kc.code_min;
    const int shift = kc.shift;
    if (!kc.nullable) {
      simd::OrShiftedCodes(simd_, codes_.data(), count, min, shift, out);
    } else {
      const uint64_t null_mask = 1ull << kc.null_bit;
      // Hybrid: 64-row chunks whose null word is clear take the vector
      // shift-and-or loop; a chunk containing a NULL falls back to the
      // per-row branch (NULL rows must not shift their placeholder code
      // into the key — they contribute only the NULL bit).
      size_t i = 0;
      while (i < count) {
        const size_t chunk = std::min<size_t>(64, count - i);
        const uint64_t nulls = kc.col->NullWord(begin + i, chunk);
        if (nulls == 0) {
          simd::OrShiftedCodes(simd_, codes_.data() + i, chunk, min, shift,
                               out + i);
        } else {
          for (size_t j = 0; j < chunk; ++j) {
            if ((nulls >> j) & 1) {
              out[i + j] |= null_mask;
            } else {
              out[i + j] |= (codes_[i + j] - min) << shift;
            }
          }
        }
        i += chunk;
      }
    }
  }
}

void BlockKeyFiller::FillDense(size_t begin, size_t count, uint32_t* out) {
  std::fill(out, out + count, 0);
  for (const KernelColumn& kc : plan_->cols) {
    LoadCodes(kc, begin, count);
    const uint64_t min = kc.code_min;
    const uint32_t stride = kc.stride;
    if (!kc.nullable) {
      simd::AddScaledDigits(simd_, codes_.data(), count, min, stride, out);
    } else {
      // NULL takes digit 0; values shift up by one. For NULL-free 64-row
      // chunks the +1 folds into the subtracted base (wrapping min - 1
      // makes code - base == (code - min) + 1), keeping the vector loop.
      size_t i = 0;
      while (i < count) {
        const size_t chunk = std::min<size_t>(64, count - i);
        const uint64_t nulls = kc.col->NullWord(begin + i, chunk);
        if (nulls == 0) {
          simd::AddScaledDigits(simd_, codes_.data() + i, chunk, min - 1,
                                stride, out + i);
        } else {
          for (size_t j = 0; j < chunk; ++j) {
            const uint32_t digit =
                ((nulls >> j) & 1)
                    ? 0u
                    : static_cast<uint32_t>(codes_[i + j] - min) + 1u;
            out[i + j] += digit * stride;
          }
        }
        i += chunk;
      }
    }
  }
}

void BlockKeyFiller::FillMultiWord(size_t begin, size_t count, uint64_t* out) {
  // Stays scalar on every tier: the key words are strided (one row =
  // key_width consecutive words), so vector stores would need scatters.
  // The multi-word kernel is dominated by hashing/compares anyway.
  const size_t kw = static_cast<size_t>(plan_->key_width);
  std::fill(out, out + count * kw, 0);
  const size_t ncols = plan_->cols.size();
  for (size_t c = 0; c < ncols; ++c) {
    const KernelColumn& kc = plan_->cols[c];
    LoadCodes(kc, begin, count);
    if (!kc.nullable) {
      for (size_t i = 0; i < count; ++i) {
        out[i * kw + c] = codes_[i];
      }
    } else {
      const uint64_t null_flag = 1ull << c;
      for (size_t i = 0; i < count; ++i) {
        // Same layout as KeyBuilder::FillKey: zero code word + a bit in the
        // trailing null-mask word (index ncols, exists since track_nulls).
        if (kc.col->IsNull(begin + i)) {
          out[i * kw + ncols] |= null_flag;
        } else {
          out[i * kw + c] = codes_[i];
        }
      }
    }
  }
}

}  // namespace gbmqo
