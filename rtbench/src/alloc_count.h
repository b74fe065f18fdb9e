// Allocation counter interposed on malloc/calloc/realloc in the rtbench
// binary (alloc_count.cpp). Counting is off until enabled, so the untraced
// pass pays one relaxed load per allocation; the generator thread excludes
// itself so the count covers the program under test only.
#pragma once

#include <cstdint>

namespace rtbench {

void set_alloc_counting(bool on);
/// Allocations counted so far (threads that excluded themselves aside).
[[nodiscard]] std::uint64_t allocs_counted();
/// Stop counting allocations made on the calling thread.
void exclude_this_thread_from_alloc_count();

}  // namespace rtbench
