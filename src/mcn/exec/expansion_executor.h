// ExpansionExecutor: the reusable rig behind intra-query parallel
// d-expansion (DESIGN.md §7). One executor owns
//
//   * a ProbePool of `parallelism` worker threads executing probe turns,
//   * `parallelism` + 1 reader slots — a BufferPool + NetworkReader per
//     slot over the shared read-only DiskManager (slot 0 serves the
//     query-driving thread, slots 1.. the probe workers), mirroring the
//     QueryService's one-pool-per-worker sharding,
//
// and stamps out per-query (engine, scheduler) pairs with NewQuery. An
// executor is intended to be reused across many queries, but by at most
// one query-driving thread at a time: every driver binds reader slot 0,
// so two queries driven concurrently through one executor would race on
// the slot-0 NetworkReader/BufferPool (which are single-threaded). The
// QueryService keeps one executor per service worker for exactly this
// reason; benches and tests create one per sweep point.
//
// parallelism == 1 builds no pool: NewQuery rigs execute the identical
// turn schedule inline on the caller thread — the serial anchor of the
// differential suite.
#ifndef MCN_EXEC_EXPANSION_EXECUTOR_H_
#define MCN_EXEC_EXPANSION_EXECUTOR_H_

#include <memory>
#include <vector>

#include "mcn/common/result.h"
#include "mcn/expand/engines.h"
#include "mcn/expand/probe_scheduler.h"
#include "mcn/expand/striped_fetch.h"
#include "mcn/graph/location.h"
#include "mcn/net/network_builder.h"
#include "mcn/net/network_reader.h"
#include "mcn/shard/sharded_builder.h"
#include "mcn/shard/sharded_reader.h"
#include "mcn/shard/sharded_storage.h"
#include "mcn/storage/buffer_pool.h"
#include "mcn/storage/disk_manager.h"

namespace mcn::exec {

class ExpansionExecutor {
 public:
  /// `disk`/`files` describe a built network; `disk` must outlive the
  /// executor and is frozen read-only (BeginConcurrentReads) for its
  /// lifetime. `pool_frames_per_slot` sizes every slot's LRU pool (the
  /// paper's buffer size, like ServiceOptions::pool_frames_per_worker).
  static Result<std::unique_ptr<ExpansionExecutor>> Create(
      storage::DiskManager* disk, const net::NetworkFiles& files,
      int parallelism, size_t pool_frames_per_slot);

  /// Sharded flavor (DESIGN.md §8): every slot gets a routing
  /// shard::ShardedNetworkReader — a per-shard pool set over the shared
  /// read-only ShardedStorage — instead of one flat pool. With
  /// `split_budget_across_shards` (the default), `pool_frames_per_slot`
  /// is the slot's *total* budget, split exactly across the shard pools
  /// (shard::SplitFramesAcrossShards, iso-memory with the flat layout);
  /// without it, every shard pool gets the full budget (the per-socket
  /// memory model). The turn schedule, and hence results and
  /// record-level I/O accounting, are identical to the flat executor for
  /// every K.
  static Result<std::unique_ptr<ExpansionExecutor>> Create(
      shard::ShardedStorage* storage, const shard::ShardedNetworkFiles& files,
      int parallelism, size_t pool_frames_per_slot,
      bool split_budget_across_shards = true);

  ~ExpansionExecutor();

  ExpansionExecutor(const ExpansionExecutor&) = delete;
  ExpansionExecutor& operator=(const ExpansionExecutor&) = delete;

  int parallelism() const { return parallelism_; }

  /// Engine + scheduler for one query at `q`. The scheduler borrows the
  /// engine and the executor; both rig members must be destroyed before
  /// the executor (engine first is fine — the scheduler only holds
  /// pointers).
  struct QueryRig {
    std::unique_ptr<expand::StripedCeaEngine> engine;
    std::unique_ptr<expand::ParallelProbeScheduler> scheduler;
  };
  Result<QueryRig> NewQuery(const graph::Location& q,
                            expand::ParallelProbeScheduler::Mode mode =
                                expand::ParallelProbeScheduler::Mode::
                                    kTurnBarrier);

  /// Clears every slot's buffer contents and statistics (cold cache).
  void ResetIoState();
  /// Hit/miss counters aggregated over all reader slots.
  storage::BufferPool::Stats PoolStats() const;
  /// Routed-fetch counters summed over all slots (zero for flat
  /// executors).
  shard::ShardedNetworkReader::ShardIoStats ShardIoStats() const;
  /// Binds every slot reader's affinity for the local/remote fetch split
  /// (sharded mode; no-op on flat executors). Call between queries.
  void SetHomeShard(shard::ShardId home);

  const std::vector<std::unique_ptr<net::NetworkReader>>& readers() const {
    return readers_;
  }
  expand::ProbePool* probe_pool() { return probe_pool_.get(); }

 private:
  ExpansionExecutor(storage::DiskManager* disk,
                    shard::ShardedStorage* storage, int parallelism);

  Result<std::unique_ptr<ExpansionExecutor>> static Finish(
      std::unique_ptr<ExpansionExecutor> executor);

  storage::DiskManager* disk_;            ///< flat mode (null when sharded)
  shard::ShardedStorage* storage_;        ///< sharded mode (else null)
  int parallelism_;
  std::vector<std::unique_ptr<storage::BufferPool>> pools_;  ///< flat only
  std::vector<std::unique_ptr<net::NetworkReader>> readers_;
  std::unique_ptr<expand::ProbePool> probe_pool_;  ///< null when p == 1
};

}  // namespace mcn::exec

#endif  // MCN_EXEC_EXPANSION_EXECUTOR_H_
