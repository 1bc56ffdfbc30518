// Fixed-size block recycler for the shared bodies of messages in flight.
// Each send allocates one body (shared_ptr control block and packet in one
// allocate_shared block), about 122 k per binary_failover trial (117 k
// unicasts, 4.4 k broadcasts). Released blocks go
// on a LIFO free list rather than back to malloc, so once the pool has
// grown to the number of bodies in flight at once, a send allocates
// nothing.
//
// The pool belongs to a Simulator and is freed with it. Bodies may only be
// held by that simulator's pending events (and by code running inside
// them), which is what the Simulator's member order guarantees: the queue
// is destroyed first and returns every body it still holds.
//
// Under AddressSanitizer a block is poisoned while it sits on the free
// list, so a use after its last release is still reported as one.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define TIBFIT_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TIBFIT_ASAN 1
#endif
#endif

#ifdef TIBFIT_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace tibfit::sim {

class BodyPool {
  public:
    /// Size of every block: a shared net::Packet body (the shared_ptr
    /// control block, its copy of the allocator and the packet, whose
    /// largest payload is a decision with its verdict index) is 160 bytes
    /// with libstdc++. BodyAllocator refuses, at compile time, a type
    /// that does not fit.
    static constexpr std::size_t kBlockSize = 160;

    BodyPool() = default;
    BodyPool(const BodyPool&) = delete;
    BodyPool& operator=(const BodyPool&) = delete;

    ~BodyPool() {
        assert(in_use_ == 0 && "a body outlived its simulator");
        for (void* p : free_) {
            unpoison(p);
            ::operator delete(p);
        }
    }

    /// A block of kBlockSize bytes, aligned for any scalar type.
    void* allocate() {
        if (free_.empty()) {
            // Room for every block on the free list at once, so that
            // deallocate never grows it.
            if (free_.capacity() < in_use_ + 1) free_.reserve(2 * (in_use_ + 1));
            void* p = ::operator new(kBlockSize);
            ++in_use_;
            return p;
        }
        void* p = free_.back();
        free_.pop_back();
        unpoison(p);
        ++in_use_;
        return p;
    }

    /// Returns a block from allocate() to the free list.
    void deallocate(void* p) noexcept {
        assert(in_use_ > 0);
        --in_use_;
        poison(p);
        free_.push_back(p);  // within capacity: see allocate()
    }

    /// Blocks handed out and not yet returned.
    std::size_t in_use() const { return in_use_; }

  private:
    static void poison([[maybe_unused]] void* p) {
#ifdef TIBFIT_ASAN
        ASAN_POISON_MEMORY_REGION(p, kBlockSize);
#endif
    }
    static void unpoison([[maybe_unused]] void* p) {
#ifdef TIBFIT_ASAN
        ASAN_UNPOISON_MEMORY_REGION(p, kBlockSize);
#endif
    }

    std::vector<void*> free_;  ///< released blocks (LIFO)
    std::size_t in_use_ = 0;
};

/// Allocator that takes its single objects from a BodyPool; for
/// std::allocate_shared, which allocates one control block per body.
template <typename T>
class BodyAllocator {
  public:
    using value_type = T;

    explicit BodyAllocator(BodyPool& pool) noexcept : pool_(&pool) {}
    template <typename U>
    BodyAllocator(const BodyAllocator<U>& o) noexcept : pool_(o.pool_) {}  // NOLINT

    T* allocate(std::size_t n) {
        static_assert(sizeof(T) <= BodyPool::kBlockSize,
                      "the body does not fit a pool block: raise BodyPool::kBlockSize");
        static_assert(alignof(T) <= alignof(std::max_align_t));
        if (n != 1) throw std::bad_array_new_length();
        return static_cast<T*>(pool_->allocate());
    }

    void deallocate(T* p, std::size_t) noexcept { pool_->deallocate(p); }

    template <typename U>
    bool operator==(const BodyAllocator<U>& o) const noexcept {
        return pool_ == o.pool_;
    }

  private:
    template <typename U>
    friend class BodyAllocator;
    BodyPool* pool_;
};

}  // namespace tibfit::sim
