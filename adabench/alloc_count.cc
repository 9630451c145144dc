#include "alloc_count.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace adabench {
namespace {

std::atomic<bool> g_on{false};
std::atomic<uint64_t> g_count{0};
std::atomic<uint64_t> g_bytes{0};

void* Counted(std::size_t size, std::size_t align) noexcept {
  if (g_on.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  void* ptr = nullptr;
  if (posix_memalign(&ptr, align, size) != 0) return nullptr;
  return ptr;
}

void* CountedOrThrow(std::size_t size, std::size_t align) {
  void* ptr = Counted(size, align);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

}  // namespace

void EnableAllocCounting(bool on) {
  g_on.store(on, std::memory_order_relaxed);
}

AllocTotals AllocCounts() {
  return {g_count.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace adabench

// Every replaceable flavour is defined here, so the library's own probe
// (common/alloc_probe.cc) is never pulled out of the static archive.
constexpr std::size_t kPlain = alignof(std::max_align_t);
using adabench::Counted;
using adabench::CountedOrThrow;

void* operator new(std::size_t n) { return CountedOrThrow(n, kPlain); }
void* operator new[](std::size_t n) { return CountedOrThrow(n, kPlain); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return Counted(n, kPlain);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return Counted(n, kPlain);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return Counted(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return Counted(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
