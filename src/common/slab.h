// Fixed-width slab allocator: contiguous records addressed by 32-bit
// index, with a freelist so freed slots are reused before the backing
// vector grows.
//
// The serving layer's session shards keep their judgement history and
// constraint sets in slabs instead of node containers: records are
// fixed-width and index-linked (a uint32 "next" instead of a 64-bit
// pointer), allocation is a freelist pop, and the per-record overhead is
// a live byte plus a 4-byte freelist link — which is what makes
// bytes-per-session a small, easily asserted number (see DESIGN.md
// "Serving at scale").
//
// Indices are stable for the record's lifetime (the vector may reallocate
// but never reorders), so cross-record links stay valid across growth.
// Not thread-safe; callers shard and lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.h"

namespace nomloc::common {

/// Sentinel "no record" index for slab-linked structures.
inline constexpr std::uint32_t kSlabNil = 0xffffffffu;

template <typename T>
class Slab {
 public:
  /// Live (allocated, not freed) record count.
  std::size_t live() const noexcept { return live_; }
  /// Total slots ever created (live + freelist).
  std::size_t capacity() const noexcept { return records_.size(); }
  /// Bytes backing the slab: records, the live bitmap and the freelist
  /// chain.
  std::size_t CapacityBytes() const noexcept {
    return records_.capacity() * sizeof(T) + alive_.capacity() +
           next_free_.capacity() * sizeof(std::uint32_t);
  }
  /// Bytes of live records (the budgeted quantity; freelist slack and
  /// vector growth headroom are resident but reusable).
  std::size_t LiveBytes() const noexcept {
    return live_ * (sizeof(T) + 1);
  }

  void Reserve(std::size_t n) {
    records_.reserve(n);
    alive_.reserve(n);
    next_free_.reserve(n);
  }

  /// Allocates a default-constructed record and returns its index.
  std::uint32_t Alloc() {
    ++live_;
    if (free_head_ != kSlabNil) {
      const std::uint32_t index = free_head_;
      free_head_ = next_free_[index];
      alive_[index] = 1;
      return index;
    }
    NOMLOC_REQUIRE(records_.size() < kSlabNil);
    records_.emplace_back();
    alive_.push_back(1);
    next_free_.push_back(kSlabNil);
    return static_cast<std::uint32_t>(records_.size() - 1);
  }

  /// Returns the record to the freelist (resetting it, so owning members
  /// like shared_ptr release immediately).
  void Free(std::uint32_t index) noexcept {
    NOMLOC_REQUIRE(alive_[index]);
    records_[index] = T{};
    alive_[index] = 0;
    next_free_[index] = free_head_;
    free_head_ = index;
    --live_;
  }

  bool IsLive(std::uint32_t index) const noexcept {
    return index < alive_.size() && alive_[index] != 0;
  }

  T& operator[](std::uint32_t index) noexcept { return records_[index]; }
  const T& operator[](std::uint32_t index) const noexcept {
    return records_[index];
  }

  void Clear() noexcept {
    records_.clear();
    alive_.clear();
    next_free_.clear();
    free_head_ = kSlabNil;
    live_ = 0;
  }

 private:
  std::vector<T> records_;
  std::vector<std::uint8_t> alive_;
  /// Freelist chain, parallel to records_ (a freed slot's payload is reset,
  /// so the chain cannot live inside T).
  std::vector<std::uint32_t> next_free_;
  std::uint32_t free_head_ = kSlabNil;
  std::size_t live_ = 0;
};

}  // namespace nomloc::common
