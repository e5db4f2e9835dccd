// Global heap-allocation counter: this binary replaces every form of
// operator new, so each allocation the library makes is counted exactly.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCount {
  std::uint64_t calls{0};
  std::uint64_t bytes{0};

  friend AllocCount operator-(AllocCount a, AllocCount b) noexcept {
    return {a.calls - b.calls, a.bytes - b.bytes};
  }
};

/// Allocations made so far by this thread plus every thread that has exited.
/// Read it on the thread that starts a run, after the run's workers joined.
[[nodiscard]] AllocCount alloc_count() noexcept;

}  // namespace perfbench
