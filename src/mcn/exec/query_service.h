// QueryService: the concurrent serving layer above the paper's query
// processors (DESIGN.md §6, §8, §9). One service owns
//
//   * a shared, read-only storage root — either one flat DiskManager or a
//     shard::ShardedStorage of K per-tile disks, frozen for the service's
//     lifetime via BeginConcurrentReads,
//   * one reader per worker — a BufferPool + NetworkReader in flat mode,
//     a routing per-shard pool set (shard::ShardedNetworkReader) in sharded
//     mode — never shared across threads, and
//   * one fixed-size ThreadPool over a lock-free MPMC queue. Flat and
//     sharded services share this execution path: any worker runs any
//     query. In sharded mode the worker binds its reader (and its probe
//     rig) to the query's *home shard* — the shard owning the query's
//     location — before each query, so fetches that escape the tile are
//     counted as remote no matter which worker ran it.
//
// Every entry point speaks api::QuerySpec (the unified preference-query
// API, DESIGN.md §9): Submit validates the spec on the executing worker —
// malformed specs resolve their future with an InvalidArgument result
// instead of crashing — runs it with a freshly constructed engine
// (LSA/CEA d-expansions + CandidateStore are per-query state, so nothing
// of a query is visible to another), applies the spec's preference
// constraints as a post-dominance filter (an exact no-op when
// unconstrained), and resolves a std::future<QueryResult> carrying the
// typed result rows, an FNV result hash (byte-identical to a
// single-threaded run — and to every other shard count K: the parity
// anchor of the service bench and tests), and per-query stats.
//
// Streaming incremental sessions (DESIGN.md §9): OpenSession pins an
// incremental spec to a session — its own LRU pool set, engine and
// algo::IncrementalTopK iterator, created lazily on whichever worker
// executes the first batch and kept warm across batches — and SessionNext
// pulls further NextBest batches from that same engine. The session table
// is bounded (ServiceOptions::max_sessions) with lazy idle eviction.
//
// Workers also feed the service-level aggregation: latency percentiles
// (p50/p95/p99), QPS, session counters, and per-shard completion, miss and
// local/remote fetch totals keyed by each query's home shard.
#ifndef MCN_EXEC_QUERY_SERVICE_H_
#define MCN_EXEC_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mcn/algo/common.h"
#include "mcn/algo/incremental_topk.h"
#include "mcn/api/query_response.h"
#include "mcn/api/query_spec.h"
#include "mcn/common/cancel.h"
#include "mcn/common/mutex.h"
#include "mcn/common/result.h"
#include "mcn/common/status.h"
#include "mcn/common/stopwatch.h"
#include "mcn/common/thread_annotations.h"
#include "mcn/exec/expansion_executor.h"
#include "mcn/exec/service_stats.h"
#include "mcn/exec/thread_pool.h"
#include "mcn/expand/engines.h"
#include "mcn/graph/location.h"
#include "mcn/net/network_builder.h"
#include "mcn/net/network_reader.h"
#include "mcn/obs/flight_recorder.h"
#include "mcn/obs/metrics.h"
#include "mcn/obs/trace.h"
#include "mcn/shard/sharded_builder.h"
#include "mcn/shard/sharded_reader.h"
#include "mcn/shard/sharded_storage.h"
#include "mcn/storage/buffer_pool.h"
#include "mcn/storage/disk_manager.h"

namespace mcn::exec {

class ResultCache;    // exec/result_cache.h
struct ResultFlight;  // exec/result_cache.h

/// The canonical kind enum lives in the api layer; exec re-exports it so
/// existing exec::QueryKind::kSkyline spellings keep working.
using QueryKind = api::QueryKind;

/// How a query's modeled I/O stall is charged (DESIGN.md §13).
///
/// kSerial is the classic model: every buffer miss costs one io_latency,
/// so stall = misses x latency — the schedule where each fetch waits for
/// the previous one. kOverlapped models a turn's misses as issued
/// together (one batched read per barrier): each turn costs only its
/// *maximum* per-probe miss delta, so stall = sum over turns of
/// max(probe miss deltas) x latency, plus the serial residue of misses
/// outside any probe (engine seeding). The overlapped model applies to
/// turn-mode requests (QuerySpec::parallelism >= 1); classic serial-path
/// queries fall back to kSerial charging regardless of the option.
enum class StallModel {
  kSerial = 0,
  kOverlapped,
};
const char* StallModelName(StallModel model);  ///< "serial"/"overlapped"

/// Streaming-session handle (see OpenSession). Ids are service-scoped and
/// never reused.
using SessionId = uint64_t;

/// Per-query measurements taken on the executing worker.
struct QueryStats {
  int worker = -1;
  int shard = -1;            ///< the query's home shard (-1 = flat)
  double queue_seconds = 0;  ///< submit -> start of execution
  double exec_seconds = 0;   ///< engine construction + query computation
  /// Modeled I/O time, charged under `stall_model`: misses x
  /// io_latency_ms for StallModel::kSerial, overlapped_misses x
  /// io_latency_ms for StallModel::kOverlapped (per-turn max instead of
  /// per-miss sum — see the enum).
  double stall_seconds = 0;
  /// The model that produced stall_seconds for *this* query: the
  /// service's configured model, downgraded to kSerial on classic
  /// serial-path requests (parallelism 0), where no turn structure exists
  /// to overlap.
  StallModel stall_model = StallModel::kSerial;
  /// Overlapped charge units (kOverlapped only): sum over turns of the
  /// max per-probe miss delta, plus misses outside any probe (engine
  /// seeding), which stay serial.
  uint64_t overlapped_misses = 0;
  /// Portion of stall_seconds already slept at turn barriers
  /// (simulate_io_stalls + kOverlapped); the executor sleeps only the
  /// residual after the query returns.
  double stall_slept_seconds = 0;
  /// Full request latency: queue wait + execution + stall (the stall is
  /// slept for real when ServiceOptions::simulate_io_stalls is set,
  /// otherwise only accounted).
  double latency_seconds = 0;
  uint64_t buffer_misses = 0;
  uint64_t buffer_accesses = 0;
  /// Prune-oracle work for this query (skyline + enable_prune_index only):
  /// frontier pops tested against the landmark bound, and the subset cut
  /// before their adjacency probe. buffer_misses includes the index pool's
  /// misses when the worker holds an index reader, so the reported I/O is
  /// the honest total.
  uint64_t prune_checked = 0;
  uint64_t prune_cut = 0;
  /// Sharded services only: routed record fetches that stayed on the
  /// home shard vs crossed a shard boundary (DESIGN.md §8).
  uint64_t local_fetches = 0;
  uint64_t remote_fetches = 0;
};

/// Outcome of one request (or one session batch). Exactly one of
/// `skyline` / `topk` is filled (by kind) when `status` is OK.
struct QueryResult {
  Status status = Status::OK();
  QueryKind kind = QueryKind::kSkyline;
  std::vector<algo::SkylineEntry> skyline;
  std::vector<algo::TopKEntry> topk;  ///< also the incremental results
  /// algo::HashResult over the filled rows (kFnvOffsetBasis when failed).
  uint64_t result_hash = 0;
  /// Incremental only: the reachable component is fully reported (a
  /// session batch shorter than its asked-for n also implies this).
  bool exhausted = false;
  QueryStats stats;

  /// The transportable subset of this result (api/wire.h encodes it).
  /// The rvalue overload moves the row vectors — what a server should
  /// call on a result it is done with.
  api::QueryResponse ToResponse() const&;
  api::QueryResponse ToResponse() &&;
};

struct ServiceOptions {
  int num_workers = 4;
  /// Ring capacity of the work queue; Submit applies back-pressure
  /// (blocks) when this many queries are already waiting.
  size_t queue_capacity = 1024;
  /// LRU frames per worker (the paper's buffer size; see
  /// gen::BufferFrames). Every worker gets the same capacity so per-query
  /// miss counts match a single-threaded run exactly. In sharded mode the
  /// budget is split exactly across the worker's K shard pools
  /// (shard::SplitFramesAcrossShards — remainder frames are distributed,
  /// not dropped). Sessions get the same budget, so a session stream's
  /// logical I/O matches a local IncrementalTopK run.
  size_t pool_frames_per_worker = 0;
  /// Modeled I/O latency charged per buffer miss (as in the bench harness).
  double io_latency_ms = 5.0;
  /// Sleep each query's modeled stall for real, so wall-clock throughput
  /// reflects overlapped I/O. Keep off for pure-CPU tests.
  bool simulate_io_stalls = false;
  /// Which stall model charges modeled I/O time (DESIGN.md §13). With
  /// kOverlapped, turn-mode queries charge each turn's max per-probe miss
  /// delta instead of the per-miss sum, and simulate_io_stalls sleeps
  /// per turn at the barrier (the residual — seeding misses charged
  /// serially — is slept after the query). kSerial keeps every query
  /// byte-stable with the pre-§13 behavior.
  StallModel stall_model = StallModel::kSerial;
  /// Physically replay each turn's drained buffer misses as one
  /// DiskManager::ReadPagesBatch (kIoBatch trace span; mcn.io.batch_*
  /// counters). Effective only on flat services whose disk has a file
  /// backend attached (DiskManager::AttachFileBackend) — otherwise a
  /// silent no-op. Replayed pages double-count in mcn.disk.page_reads
  /// next to the pool's logical fetches; the batch_* counters isolate
  /// the batched share.
  bool replay_batch_io = false;
  /// Cross-query result sharing (DESIGN.md §13): > 0 bounds an LRU cache
  /// of finished one-shot results keyed by canonical spec + network
  /// epoch, with single-flight coalescing of concurrent identical
  /// requests. 0 disables caching entirely (byte-stable default).
  /// Sessions always bypass the cache.
  size_t result_cache_entries = 0;
  /// Probe threads available to one query (DESIGN.md §7). > 1 lets a
  /// service worker build its own ExpansionExecutor — lazily, on the
  /// worker's first request with parallelism > 1, so services whose
  /// clients never opt in pay nothing; the worker's later parallel
  /// queries then share that executor's probe pool and reader slots.
  /// Requests opt in per query via QuerySpec::parallelism.
  /// 1 = turn-schedule requests run inline.
  int per_query_parallelism = 1;
  /// Sharded mode: how pool_frames_per_worker maps onto a worker's K
  /// shard pools. true divides the budget evenly (iso-memory comparison
  /// against the flat layout — total frames constant in K, at the price
  /// of LRU capacity fragmentation); false gives every shard pool the
  /// full budget — the per-socket memory model of the ROADMAP, where
  /// each socket contributes its own DIMMs and aggregate buffer grows
  /// with K.
  bool split_pool_across_shards = true;
  /// Bound on concurrently open streaming sessions (DESIGN.md §9). An
  /// OpenSession beyond the bound evicts the least-recently-used idle
  /// session; when every session is busy it fails instead.
  size_t max_sessions = 64;
  /// Sessions untouched for this long are evicted lazily (checked on the
  /// next OpenSession). <= 0 disables idle eviction.
  double session_idle_seconds = 300.0;
  /// Admission control (DESIGN.md §10): bound on queries in flight
  /// (queued + executing), service-wide. 0 = unbounded, with the legacy
  /// blocking back-pressure on a full ring. > 0 = load-shedding: a Submit
  /// that would exceed the cap — or land on a full ring — resolves
  /// immediately with ResourceExhausted instead of blocking the caller,
  /// and is counted in ServiceStats::rejected.
  size_t max_inflight = 0;
  /// Observability (DESIGN.md §11): when set, every finished query/batch
  /// is digested into this recorder (last-N ring + slow-query log). Not
  /// owned; must outlive the service.
  obs::FlightRecorder* flight_recorder = nullptr;
  /// Landmark lower-bound pruning (DESIGN.md §12). Opt-in: when true and
  /// the served network carries a built index (NetworkFiles::landmark /
  /// ShardedNetworkFiles::landmark), every worker gets a validated
  /// LandmarkIndexReader (its own small pool, charged separately from the
  /// network pools) and serial skyline queries run with the prune oracle.
  /// Results are byte-identical either way — the index only elides
  /// adjacency probes whose subtrees cannot matter. The default keeps
  /// existing services byte-stable in stats as well as results.
  bool enable_prune_index = false;
};

/// See the file comment. Thread-safe: Submit/session calls/Drain/Snapshot
/// may be called from any thread; Shutdown from one thread at a time.
class QueryService {
 public:
  /// Flat storage: `disk`/`files` describe a fully built network (see
  /// net::BuildNetwork); `disk` must outlive the service and is frozen
  /// read-only until the service shuts down.
  static Result<std::unique_ptr<QueryService>> Create(
      storage::DiskManager* disk, const net::NetworkFiles& files,
      const ServiceOptions& options);

  /// Sharded storage (DESIGN.md §8): `storage`/`files` describe a built
  /// sharded network (shard::BuildShardedNetwork); `storage` must outlive
  /// the service and every shard disk is frozen read-only until shutdown.
  /// Any worker runs any query; each query is bound to its home shard for
  /// the local/remote fetch split.
  static Result<std::unique_ptr<QueryService>> Create(
      shard::ShardedStorage* storage,
      const shard::ShardedNetworkFiles& files, const ServiceOptions& options);

  /// Shutdown(/*drain=*/true).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueues `spec`; blocks when the queue is full. Malformed specs
  /// resolve the future with an InvalidArgument result (never a crash).
  /// After shutdown the returned future is immediately ready with a
  /// FailedPrecondition result.
  std::future<QueryResult> Submit(api::QuerySpec spec);

  /// Opens a streaming incremental session for `spec` (kind must be
  /// kIncrementalTopK; the spec's k is advisory only — batch sizes are
  /// chosen per SessionNext call). The session's reader is bound to the
  /// location's home shard and its engine is built lazily, on the worker
  /// executing the first SessionNext. Fails when the spec is invalid or
  /// the session table is full of busy sessions.
  Result<SessionId> OpenSession(api::QuerySpec spec);

  /// Pulls the next `n` ranked results from the session's pinned engine
  /// (on any worker). Batches on one session serialize — a
  /// pipelined batch waits *on its executing worker* for the previous
  /// one, so keep per-session pipelining shallow or it parks workers
  /// (the wire server never pipelines: one request per connection is in
  /// flight, and connections only reach their own sessions). An
  /// unknown/evicted id resolves with NotFound. A batch shorter than `n`
  /// means the reachable component is exhausted (also flagged on the
  /// result); later batches are empty, never errors.
  std::future<QueryResult> SessionNext(SessionId id, int n);

  /// Closes (evicts) a session. NotFound for unknown/already-closed ids.
  /// An in-flight batch finishes normally.
  Status CloseSession(SessionId id);

  /// Waits until every submitted query has completed.
  void Drain();

  /// Stops the workers and drops every open session. drain=true completes
  /// the backlog first; drain=false discards it — a discarded query's
  /// future resolves with a FailedPrecondition result (futures never
  /// throw). Idempotent.
  void Shutdown(bool drain = true);

  /// Aggregated service statistics since construction (or ResetStats);
  /// sharded services also fill ServiceStats::per_shard. A thin view:
  /// ServiceStatsFromSnapshot(MetricsSnapshot()).
  ServiceStats Snapshot() const;

  /// The full observability snapshot (DESIGN.md §11): every registry
  /// instrument (per-shard rows included) plus disk I/O totals and
  /// liveness gauges. This is what api::Server serves for kGetMetrics.
  obs::Snapshot MetricsSnapshot() const;

  /// Clears the aggregation and restarts the QPS window. Call only while
  /// no query is in flight.
  void ResetStats();

  int num_workers() const { return static_cast<int>(workers_.size()); }
  bool sharded() const { return storage_ != nullptr; }
  /// The served network's cost dimensionality d (what specs validate
  /// against).
  int num_costs() const {
    return sharded() ? sharded_files_.num_costs : files_.num_costs;
  }
  size_t num_open_sessions() const;
  const ServiceOptions& options() const { return opts_; }

  /// Cross-query sharing epoch (DESIGN.md §13). Bumping invalidates every
  /// cached result — the seam to call when the served network changes
  /// under a future online-update path. In-flight queries resolve
  /// normally; their results are just not stored. No-op counter-wise when
  /// result_cache_entries is 0 (the epoch still advances).
  void BumpNetworkEpoch();
  uint64_t network_epoch() const {
    return network_epoch_.load(std::memory_order_acquire);
  }

  /// The result cache's key for `spec` under `epoch`: the canonical
  /// kExecute wire frame of the spec with execution-strategy fields
  /// (engine, parallelism, deadline) normalized away — the determinism
  /// contract makes results identical across those — plus the epoch.
  /// Exposed for tests.
  static std::string CanonicalCacheKey(const api::QuerySpec& spec,
                                       uint64_t epoch);

 private:
  /// One pinned incremental stream (DESIGN.md §9): its own reader/pool
  /// set and iterator, warm across batches, confined to one batch at a
  /// time by `mu`.
  struct Session {
    SessionId id = 0;
    api::QuerySpec spec;
    /// Shard owning the spec's location (kInvalidShard when flat).
    shard::ShardId home_shard = shard::kInvalidShard;
    /// Flat mode only: the pool behind `reader` (sharded readers own
    /// their per-shard pools).
    std::unique_ptr<storage::BufferPool> pool MCN_GUARDED_BY(mu);
    std::unique_ptr<net::NetworkReader> reader MCN_GUARDED_BY(mu);
    std::unique_ptr<expand::NnEngine> engine MCN_GUARDED_BY(mu);
    std::unique_ptr<algo::IncrementalTopK> query MCN_GUARDED_BY(mu);
    Mutex mu;  ///< serializes batches on this session
    /// Batches submitted but not yet finished; only idle (== 0) sessions
    /// are evictable.
    std::atomic<int> inflight{0};
    /// Last submit/completion, for LRU + idle eviction. Guarded by the
    /// *service's* sessions_mu_ (a cross-object contract TSA cannot
    /// express as GUARDED_BY; the REQUIRES(sessions_mu_) helpers below
    /// are the checked part of it).
    std::chrono::steady_clock::time_point last_used{};
  };

  /// What rides the MPMC queue: a one-shot spec or a session batch pull,
  /// plus the promise.
  struct Task {
    api::QuerySpec spec;
    std::shared_ptr<Session> session;  ///< non-null: session batch
    int batch_n = 0;
    std::promise<QueryResult> promise;
    std::chrono::steady_clock::time_point enqueue_time{};
    /// Absolute deadline (anchored at admission, DESIGN.md §10). A task
    /// found expired at dequeue resolves DeadlineExceeded without running;
    /// a running one is cancelled cooperatively via CancelToken.
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    /// Trace identity stamped at admission (inactive when tracing is off);
    /// the executing worker installs it thread-locally for the query.
    obs::TraceContext trace;
    /// Result-cache single-flight token (DESIGN.md §13): non-null on the
    /// one task computing a cache key. Whoever finishes the task — the
    /// executor, the discard handler, or an admission-failure path — must
    /// Complete the flight or coalesced waiters hang.
    std::shared_ptr<ResultFlight> cache_flight;
    std::string cache_key;
    uint64_t cache_epoch = 0;
  };

  /// Per-worker state: reader (owning its pool set) confined to one
  /// worker thread. The service aggregation that used to live here (latency
  /// samples + a mutex-guarded counter block per worker) moved into the
  /// service's obs::Registry — workers record through shared lock-free
  /// instruments, slot = worker index (DESIGN.md §11).
  struct Worker {
    /// Flat mode only: the single pool behind `reader` (the reader owns
    /// its per-shard pools in sharded mode).
    std::unique_ptr<storage::BufferPool> pool;
    std::unique_ptr<net::NetworkReader> reader;
    /// Intra-query probe rig; built on the worker's first request with
    /// parallelism > 1 (per_query_parallelism > 1 only).
    std::unique_ptr<ExpansionExecutor> expansion;
    /// Validated landmark-index reader (enable_prune_index and a present
    /// index only); worker-thread confined like `reader`. Owns its own
    /// small pool — see net::kLandmarkPoolFrames.
    std::unique_ptr<net::LandmarkIndexReader> landmark;
  };

  /// Cached instrument handles (resolved once at construction; recording
  /// through them never touches the registry mutex).
  struct Metrics {
    obs::Counter* completed = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* timed_out = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* session_batches = nullptr;
    obs::Counter* buffer_misses = nullptr;
    obs::Counter* buffer_accesses = nullptr;
    obs::Counter* prune_checked = nullptr;
    obs::Counter* prune_cut = nullptr;
    obs::Counter* cache_hit = nullptr;
    obs::Counter* cache_miss = nullptr;
    obs::Counter* cache_coalesced = nullptr;
    obs::Counter* overlapped_misses = nullptr;
    obs::Counter* cpu_micros = nullptr;
    obs::Counter* stall_micros = nullptr;
    obs::Counter* queue_micros = nullptr;
    obs::Histogram* latency_us = nullptr;
    /// Sharded services: per-shard attribution, keyed by each query's
    /// home shard.
    struct ShardCounters {
      obs::Counter* completed = nullptr;
      obs::Counter* buffer_misses = nullptr;
      obs::Counter* local_fetches = nullptr;
      obs::Counter* remote_fetches = nullptr;
    };
    std::vector<ShardCounters> shards;
  };

  QueryService(storage::DiskManager* disk, shard::ShardedStorage* storage,
               const net::NetworkFiles& files,
               const shard::ShardedNetworkFiles& sharded_files,
               const ServiceOptions& options);

  /// Builds one reader over the service's storage with the per-worker
  /// pool budget — the single construction path for worker and session
  /// readers. Flat mode materializes the backing pool into `flat_pool`;
  /// sharded readers own their per-shard pools.
  std::unique_ptr<net::NetworkReader> MakeReader(
      std::unique_ptr<storage::BufferPool>* flat_pool) const;
  /// The shard owning `location` under the routing table; kInvalidShard
  /// on flat services. Out-of-range locations map to shard 0 (the query
  /// then fails validation on the worker).
  shard::ShardId HomeShard(const graph::Location& location) const;

  /// Enqueues `task`, resolving the future immediately when the service
  /// is shut down (or, under max_inflight, over capacity).
  std::future<QueryResult> Enqueue(Task&& task);

  /// Settles a task's cache flight with a failure (waiters share the
  /// fate); no-op when the task carries none. Every path that resolves a
  /// flighted task without executing it must call this.
  void AbandonCacheFlight(Task& task, const Status& status);

  void Execute(Task&& task, int worker_index);
  /// Runs the query on `worker`, bound to `home` (sharded services); fills
  /// everything but the latency fields of the result stats. `cancel`
  /// (nullable) is checked cooperatively by the expansion layer.
  QueryResult RunQuery(const api::QuerySpec& spec, Worker& worker,
                       shard::ShardId home, const CancelToken* cancel);
  /// Runs one session batch (creating the session's engine on first use).
  QueryResult RunSessionBatch(Session& session, int n,
                              const CancelToken* cancel);

  /// Drops idle sessions past the idle timeout (runs on every
  /// OpenSession).
  void EvictExpiredSessions() MCN_REQUIRES(sessions_mu_);
  /// Drops the LRU idle session to make room in a full table. False =
  /// every session is busy.
  bool MakeSessionRoom() MCN_REQUIRES(sessions_mu_);

  storage::DiskManager* disk_ = nullptr;        ///< flat mode
  shard::ShardedStorage* storage_ = nullptr;    ///< sharded mode
  net::NetworkFiles files_;                     ///< flat mode
  shard::ShardedNetworkFiles sharded_files_;    ///< sharded mode
  ServiceOptions opts_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<ThreadPool<Task>> pool_;
  /// Queries admitted and not yet finished (max_inflight > 0 only).
  std::atomic<int64_t> inflight_{0};
  mutable Mutex sessions_mu_;
  std::unordered_map<SessionId, std::shared_ptr<Session>> sessions_
      MCN_GUARDED_BY(sessions_mu_);
  SessionId next_session_id_ MCN_GUARDED_BY(sessions_mu_) = 1;
  Stopwatch uptime_;
  /// Cross-query result cache (null unless result_cache_entries > 0) and
  /// the epoch its keys carry (DESIGN.md §13).
  std::unique_ptr<ResultCache> result_cache_;
  std::atomic<uint64_t> network_epoch_{0};
  bool shut_down_ MCN_GUARDED_BY(sessions_mu_) = false;
  /// Service-scoped instrument registry (per-instance so tests and
  /// side-by-side services never double-count), sized one slot per worker.
  obs::Registry registry_;
  Metrics metrics_;
};

}  // namespace mcn::exec

#endif  // MCN_EXEC_QUERY_SERVICE_H_
