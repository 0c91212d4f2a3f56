// Huge-page backing for large flat arrays (hash-table group arrays).
//
// A random probe into an array far larger than the TLB's reach pays a page
// walk on top of its cache miss.  An array of at least kHugePageSize bytes is
// instead mapped at a kHugePageSize-aligned address, rounded up to whole huge
// pages, and advised MADV_HUGEPAGE before its first touch, so the kernel can
// back it with 2 MiB pages even where transparent huge pages are enabled for
// madvise'd regions only.  Smaller arrays, non-Linux builds and a refused
// mapping or advice get nullptr: the caller keeps its plain heap allocation.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace ccds {

inline constexpr std::size_t kHugePageSize = std::size_t{2} << 20;

inline std::size_t huge_page_round(std::size_t bytes) noexcept {
  return (bytes + kHugePageSize - 1) & ~(kHugePageSize - 1);
}

// Zero-filled, kHugePageSize-aligned memory of huge_page_round(bytes) bytes,
// or nullptr (see above).  Release it with huge_page_free(p, bytes), never
// with delete or free.
inline void* huge_page_alloc(std::size_t bytes) noexcept {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  if (bytes < kHugePageSize) return nullptr;
  const std::size_t len = huge_page_round(bytes);
  // Over-map by one huge page, then trim head and tail so exactly the
  // aligned [p, p + len) stays mapped.
  void* raw = ::mmap(nullptr, len + kHugePageSize, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) return nullptr;
  char* const base = static_cast<char*>(raw);
  const std::size_t head =
      (kHugePageSize - reinterpret_cast<std::uintptr_t>(raw) % kHugePageSize) %
      kHugePageSize;
  char* const p = base + head;
  if (head != 0) ::munmap(base, head);
  ::munmap(p + len, kHugePageSize - head);
  if (::madvise(p, len, MADV_HUGEPAGE) != 0) {
    ::munmap(p, len);
    return nullptr;
  }
  return p;
#else
  (void)bytes;
  return nullptr;
#endif
}

inline void huge_page_free(void* p, std::size_t bytes) noexcept {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  ::munmap(p, huge_page_round(bytes));
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace ccds
