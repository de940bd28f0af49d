// Counting replacements of the global allocation functions. They live
// only in the benchmark binary: every heap allocation the library makes
// on the benchmark's behalf goes through them, and while the traced
// replay has counting on, each one bumps a counter the tracer
// attributes to the innermost open span. With counting off the cost is
// one relaxed atomic load per allocation.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace perfbench::trace {
extern std::atomic<bool> g_counting;
extern std::atomic<std::uint64_t> g_allocations;
}  // namespace perfbench::trace

namespace {

void count_one() {
  if (perfbench::trace::g_counting.load(std::memory_order_relaxed))
    perfbench::trace::g_allocations.fetch_add(1, std::memory_order_relaxed);
}

void* allocate(std::size_t n) {
  count_one();
  return std::malloc(n ? n : 1);
}

void* allocate_aligned(std::size_t n, std::align_val_t al) {
  count_one();
  void* p = nullptr;
  std::size_t a = static_cast<std::size_t>(al);
  if (a < sizeof(void*)) a = sizeof(void*);
  if (posix_memalign(&p, a, n ? n : 1) != 0) return nullptr;
  return p;
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = allocate(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = allocate(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = allocate_aligned(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = allocate_aligned(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return allocate_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return allocate_aligned(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
