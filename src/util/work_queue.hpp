// Work-stealing scheduler for distributing a fixed batch of work items
// (fault indices) to worker threads.
//
// Modeled on the block granularity of relaxed concurrent FIFOs
// (block_based_queue) crossed with a classic work-stealing deque: the item
// set is frozen up front (ATPG knows its fault list before workers start)
// and pre-split into contiguous blocks, and the blocks are dealt out to
// per-worker deques before any worker runs.  Each worker then
//
//   * takes from the FRONT of its own deque (ascending item order — cheap,
//     cache-friendly, and the common path: one CAS per block, contended
//     only in the final steal race), and
//   * when its own deque is dry, STEALS a whole block from the BACK of a
//     victim's deque (scanning victims round-robin from its own slot), so a
//     worker stuck on a heavy-tailed item — one ATPG "whale" fault can cost
//     10000x the median — donates its untouched blocks instead of
//     stranding them.
//
// Stealing whole blocks keeps thieves off the owner's common path: owner
// and thief only collide on the very last block of a deque.  Each deque is
// one packed 64-bit atomic (head | tail), so the owner/thief race on that
// last block resolves with a single compare-exchange — no two-cursor
// "both sides claim the final block" hazard, no locks, no ABA (cursors move
// monotonically toward each other and blocks are never re-added).
//
// Determinism: the queue only decides WHICH worker runs WHICH block, never
// what the result is.  Per-item results are pure functions of the item (the
// engine's per-fault searches are shard-independent), and the consumer
// commits outcomes in item-list order after the fan-out, so any steal
// interleaving — and any thread count — yields byte-identical results.
//
// Publication protocol: this structure is lock-free, so the mutex-based
// thread-safety annotations from util/annotations.hpp do not apply (see the
// conventions note there); the TSan CI job checks it instead.  The frozen
// `items_`/`blocks_` arrays are published to workers by the thread-creation
// happens-before edge (construction completes before any worker starts, and
// both are immutable afterwards).  The only mutable shared state is the
// packed head|tail cursor per deque — claims race on it with a single CAS,
// and relaxed ordering suffices because a claim transfers INDICES into the
// immutable arrays, never data written after construction.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace xatpg {

template <typename T>
class StealingWorkQueue {
 public:
  /// A claimed block: contiguous items [first, first + count).
  struct Block {
    const T* first = nullptr;
    std::size_t count = 0;
    const T* begin() const { return first; }
    const T* end() const { return first + count; }
  };

  /// Freeze `items`, split them into blocks of `block_size`, and deal the
  /// blocks out to `workers` deques in contiguous runs (worker w is seeded
  /// with the w-th slice of the block list, balanced to within one block).
  StealingWorkQueue(std::vector<T> items, std::size_t block_size,
                    std::size_t workers)
      : items_(std::move(items)), block_size_(block_size) {
    XATPG_CHECK_MSG(block_size_ > 0, "block size must be positive");
    XATPG_CHECK_MSG(workers > 0, "need at least one worker");
    const std::size_t blocks =
        (items_.size() + block_size_ - 1) / block_size_;
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t begin = b * block_size_;
      blocks_.push_back(Block{items_.data() + begin,
                              std::min(block_size_, items_.size() - begin)});
    }
    deques_ = std::vector<Deque>(workers);
    steals_ = std::vector<std::atomic<std::size_t>>(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      // Worker w owns blocks [w*blocks/workers, (w+1)*blocks/workers).
      const auto lo = static_cast<std::uint32_t>(w * blocks / workers);
      const auto hi = static_cast<std::uint32_t>((w + 1) * blocks / workers);
      deques_[w].cursor.store(pack(lo, hi), std::memory_order_relaxed);
      steals_[w].store(0, std::memory_order_relaxed);
    }
  }

  std::size_t size() const { return items_.size(); }
  std::size_t block_size() const { return block_size_; }
  std::size_t num_blocks() const { return blocks_.size(); }
  std::size_t workers() const { return deques_.size(); }

  /// Claim the next block for `worker`: the front of its own deque, or —
  /// once that is dry — the back of the first victim deque (scanned
  /// round-robin from worker+1) that still has one.  nullopt means every
  /// deque is empty, i.e. the batch is fully claimed; deques only ever
  /// shrink, so one clean sweep over all of them is a sound emptiness
  /// proof.  Safe to call concurrently from any number of threads, but each
  /// worker slot should be driven by one thread at a time (the steal
  /// counter is per-slot).
  std::optional<Block> pop_block(std::size_t worker) {
    XATPG_CHECK_MSG(worker < deques_.size(), "worker slot out of range");
    if (const auto own = claim(deques_[worker], /*from_front=*/true))
      return blocks_[*own];
    const std::size_t n = deques_.size();
    for (std::size_t i = 1; i < n; ++i) {
      Deque& victim = deques_[(worker + i) % n];
      if (const auto stolen = claim(victim, /*from_front=*/false)) {
        steals_[worker].fetch_add(1, std::memory_order_relaxed);
        return blocks_[*stolen];
      }
    }
    return std::nullopt;
  }

  /// Blocks `worker` obtained by stealing from another deque (scheduler
  /// telemetry; not part of any deterministic result).
  std::size_t steals(std::size_t worker) const {
    return steals_[worker].load(std::memory_order_relaxed);
  }
  std::size_t total_steals() const {
    std::size_t n = 0;
    for (const auto& s : steals_) n += s.load(std::memory_order_relaxed);
    return n;
  }

 private:
  /// One worker's share of the block list: the unclaimed range
  /// [head, tail), packed into a single atomic word so owner (head side)
  /// and thieves (tail side) cannot both win the last block.
  struct Deque {
    std::atomic<std::uint64_t> cursor{0};
  };

  static std::uint64_t pack(std::uint32_t head, std::uint32_t tail) {
    return (static_cast<std::uint64_t>(head) << 32) | tail;
  }
  static std::uint32_t head_of(std::uint64_t cursor) {
    return static_cast<std::uint32_t>(cursor >> 32);
  }
  static std::uint32_t tail_of(std::uint64_t cursor) {
    return static_cast<std::uint32_t>(cursor);
  }

  /// Claim one block index from `deque`, from the head (owner) or the tail
  /// (thief).  Relaxed ordering is sufficient: the claim only arbitrates
  /// WHO runs the block — the block data itself is immutable and was
  /// published before the worker threads started (thread-creation
  /// happens-before), and per-item results are merged after a join.
  std::optional<std::size_t> claim(Deque& deque, bool from_front) {
    std::uint64_t cursor = deque.cursor.load(std::memory_order_relaxed);
    while (true) {
      const std::uint32_t head = head_of(cursor);
      const std::uint32_t tail = tail_of(cursor);
      if (head >= tail) return std::nullopt;  // empty — and stays empty
      const std::uint64_t next =
          from_front ? pack(head + 1, tail) : pack(head, tail - 1);
      if (deque.cursor.compare_exchange_weak(cursor, next,
                                             std::memory_order_relaxed))
        return from_front ? head : tail - 1;
      // cursor was reloaded by the failed CAS; retry against the new value.
    }
  }

  const std::vector<T> items_;
  const std::size_t block_size_;
  std::vector<Block> blocks_;
  std::vector<Deque> deques_;
  std::vector<std::atomic<std::size_t>> steals_;
};

/// Worker slots for a fan-out of `items` over `threads` threads: one per
/// item at most, never fewer than one (the calling thread).  The caller
/// needs fan_out_workers(threads, items) - 1 helper threads, so a small
/// batch never spawns `threads` of them.
inline std::size_t fan_out_workers(std::size_t threads, std::size_t items) {
  return std::max<std::size_t>(std::min(threads, items), 1);
}

/// Block size heuristic: enough blocks per worker for load balancing (work
/// per fault varies wildly — redundant faults exhaust their search caps),
/// but coarse enough that cursor traffic is negligible.  Guarantees that
/// whenever `items >= workers` the batch splits into at least `workers`
/// blocks (block size never exceeds items / workers), so no worker is
/// seeded empty-handed on small fault lists.
inline std::size_t work_block_size(std::size_t items, std::size_t workers) {
  if (workers <= 1) return items > 0 ? items : 1;
  const std::size_t target_blocks = 4 * workers;
  const std::size_t fair_share = items / workers;  // ceil(items/size) >= workers
  const std::size_t size =
      std::min(std::max<std::size_t>(items / target_blocks, 1),
               std::max<std::size_t>(fair_share, 1));
  return size;
}

}  // namespace xatpg
