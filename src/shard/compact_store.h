#ifndef ADAMOVE_SHARD_COMPACT_STORE_H_
#define ADAMOVE_SHARD_COMPACT_STORE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/arena.h"
#include "common/durable_io.h"
#include "common/mutex.h"
#include "core/online_adapter.h"
#include "serve/session_store.h"

namespace adamove::shard {

/// On-disk cold-tier files: a durable_io framed file (DESIGN.md §12).
/// Frame 0 is a header {format version, user count}; every further frame is
/// one user's compact blob (the exact bytes the arena held), users
/// ascending — identical store state saves to identical bytes.
inline constexpr uint32_t kCompactStoreMagic = 0xADA5C0DE;

struct CompactStoreConfig {
  /// Slab granule of the backing arena (common::SlabArena).
  size_t slab_bytes = 64 * 1024;
};

/// The cold tier behind a serve::SessionStore (DESIGN.md §12): evicted
/// users live here as compact blobs (core::OnlineAdapter::EncodeUser, the
/// snapshot encoding, q8 where exact) carved out of a slab arena, ~4x
/// smaller than the dense OnlineAdapter representation and freed in O(1)
/// on rehydration. Implements serve::ColdTier, so the session store
/// calls Take/Accept without knowing the representation.
///
/// Thread-safe: one internal mutex guards the arena and the blob map. The
/// ColdTier contract says callers hold a session-store shard mutex while
/// calling in; the lock order (shard mutex -> store mutex) is acyclic
/// because the store never calls back out.
class CompactStore : public serve::ColdTier {
 public:
  struct Stats {
    size_t users = 0;
    /// Sum of encoded blob lengths (payload bytes, excluding arena slack).
    uint64_t blob_bytes = 0;
    common::SlabArena::Stats arena;
    uint64_t accepts = 0;
    uint64_t takes = 0;
    /// Cumulative codec accounting across Accepts: patterns stored, and the
    /// subset that failed exact quantization and stayed raw f32.
    uint64_t patterns = 0;
    uint64_t raw_patterns = 0;
  };

  explicit CompactStore(const CompactStoreConfig& config = {});

  /// ColdTier: removes and rehydrates one user's blob (O(1) arena free).
  bool Take(int64_t user, core::OnlineAdapter::UserSnapshot* out) override;

  /// ColdTier: encodes and stores a user's complete state, replacing any
  /// previous blob. A user with stored entries or pending deltas is kept;
  /// a fully empty snapshot just erases (nothing to keep).
  void Accept(core::OnlineAdapter::UserSnapshot&& snap) override;

  bool Contains(int64_t user) const;
  size_t UserCount() const;
  /// All dehydrated users, ascending.
  std::vector<int64_t> Users() const;
  Stats GetStats() const;

  /// Persists every blob to `path` via durable_io's atomic framed commit
  /// (subject to the io.snapshot_* fault points). `stats` reports users /
  /// payload bytes written.
  common::IoResult Save(const std::string& path,
                        serve::SnapshotStats* stats = nullptr) const;

  /// Loads blobs from a compact-store file, validating every frame through
  /// the full decoder before admitting its bytes (a corrupt or
  /// duplicate-user frame aborts with a structured error; the verified
  /// prefix stands, and a torn tail reports ok with stats->torn_tail).
  /// Loaded users replace same-id blobs already in the store.
  common::IoResult Load(const std::string& path,
                        serve::SnapshotStats* stats = nullptr);

 private:
  struct Blob {
    common::SlabArena::Block block;
    uint32_t length = 0;  // encoded payload bytes within the block
  };

  /// Copies `bytes` into the arena under `user`, freeing any previous blob.
  void StoreBlobLocked(int64_t user, std::string_view bytes)
      ADAMOVE_REQUIRES(mu_);

  mutable common::Mutex mu_;
  common::SlabArena arena_ ADAMOVE_GUARDED_BY(mu_);
  std::unordered_map<int64_t, Blob> blobs_ ADAMOVE_GUARDED_BY(mu_);
  uint64_t blob_bytes_ ADAMOVE_GUARDED_BY(mu_) = 0;
  uint64_t accepts_ ADAMOVE_GUARDED_BY(mu_) = 0;
  uint64_t takes_ ADAMOVE_GUARDED_BY(mu_) = 0;
  uint64_t patterns_ ADAMOVE_GUARDED_BY(mu_) = 0;
  uint64_t raw_patterns_ ADAMOVE_GUARDED_BY(mu_) = 0;
};

}  // namespace adamove::shard

#endif  // ADAMOVE_SHARD_COMPACT_STORE_H_
