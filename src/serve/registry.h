// Hot-swap snapshot slot: a mutex-guarded std::shared_ptr.
//
// Readers call current() on every request, which copies the pointer under
// the lock (a refcount increment); the copy keeps the snapshot alive for
// exactly the duration of the request. publish() swaps the pointer in under
// the same lock; the expensive snapshot build happens before, outside any
// shared state. A retired snapshot (replicas, CSR state, workspaces) is
// destroyed when its last reference drops: never under a reader's feet,
// never leaked, and never under the lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "serve/servable.h"

namespace fedtiny::serve {

class SnapshotRegistry {
 public:
  /// The snapshot to serve this request from; nullptr before first publish.
  [[nodiscard]] std::shared_ptr<const ServableModel> current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slot_;
  }

  /// Install `next` (may be nullptr to take the tier out of service). The
  /// previous snapshot drains naturally via refcount.
  void publish(std::shared_ptr<const ServableModel> next) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      slot_.swap(next);
    }
    publishes_.fetch_add(1, std::memory_order_relaxed);
    // `next` now holds the retired snapshot; it is released here, unlocked.
  }

  [[nodiscard]] uint64_t publishes() const {
    return publishes_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ServableModel> slot_;
  std::atomic<uint64_t> publishes_{0};
};

}  // namespace fedtiny::serve
