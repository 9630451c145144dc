#ifndef ADABENCH_ALLOC_COUNT_H_
#define ADABENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace adabench {

/// Process-wide heap allocation counter. The benchmark binary replaces the
/// global operator new/delete (alloc_count.cc) so that allocations on every
/// thread — the serving workers included — are counted, which the
/// repository's thread-local common/alloc_probe cannot see. Counting is off
/// until Enable(true); while off, each allocation pays one relaxed load.
struct AllocTotals {
  uint64_t count = 0;
  uint64_t bytes = 0;
};

void EnableAllocCounting(bool on);
AllocTotals AllocCounts();

}  // namespace adabench

#endif  // ADABENCH_ALLOC_COUNT_H_
