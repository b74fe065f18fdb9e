#include "alloc_count.h"

#include <atomic>
#include <cstddef>

// glibc's own entry points; the definitions below take precedence over
// libc's malloc for every allocation in the process, operator new included.
extern "C" {
void* __libc_malloc(std::size_t n);
void* __libc_calloc(std::size_t n, std::size_t size);
void* __libc_realloc(void* p, std::size_t n);
}

namespace rtbench {
namespace {

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_allocs{0};
thread_local bool t_excluded = false;

inline void count() {
  if (g_on.load(std::memory_order_relaxed) && !t_excluded) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void set_alloc_counting(bool on) { g_on.store(on, std::memory_order_relaxed); }
std::uint64_t allocs_counted() {
  return g_allocs.load(std::memory_order_relaxed);
}
void exclude_this_thread_from_alloc_count() { t_excluded = true; }

}  // namespace rtbench

// Sanitizers interpose malloc themselves; such a build is refused before
// anything is timed (main.cpp), so it simply counts nothing.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
extern "C" {

void* malloc(std::size_t n) {
  rtbench::count();
  return __libc_malloc(n);
}

void* calloc(std::size_t n, std::size_t size) {
  rtbench::count();
  return __libc_calloc(n, size);
}

void* realloc(void* p, std::size_t n) {
  rtbench::count();
  return __libc_realloc(p, n);
}

}  // extern "C"
#endif
