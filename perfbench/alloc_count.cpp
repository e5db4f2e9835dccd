#include "alloc_count.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_exited_calls{0};
std::atomic<std::uint64_t> g_exited_bytes{0};

// Per-thread tallies keep the sharded workers off a shared cache line; a
// thread folds its tally into the globals when it exits (before join()
// returns on the spawning thread).
struct ThreadTally {
  std::uint64_t calls{0};
  std::uint64_t bytes{0};
  ~ThreadTally() {
    g_exited_calls.fetch_add(calls, std::memory_order_relaxed);
    g_exited_bytes.fetch_add(bytes, std::memory_order_relaxed);
    calls = 0;
    bytes = 0;
  }
};
thread_local ThreadTally t_tally;

void* counted(std::size_t n, std::size_t align) {
  ++t_tally.calls;
  t_tally.bytes += n;
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else if (posix_memalign(&p, align, n) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* counted_nothrow(std::size_t n, std::size_t align) noexcept {
  try {
    return counted(n, align);
  } catch (...) {
    return nullptr;
  }
}

}  // namespace

namespace perfbench {

AllocCount alloc_count() noexcept {
  return {g_exited_calls.load(std::memory_order_relaxed) + t_tally.calls,
          g_exited_bytes.load(std::memory_order_relaxed) + t_tally.bytes};
}

}  // namespace perfbench

void* operator new(std::size_t n) { return counted(n, 0); }
void* operator new[](std::size_t n) { return counted(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_nothrow(n, 0); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_nothrow(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_nothrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_nothrow(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
