#include "mcn/exec/query_service.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "mcn/algo/constraints.h"
#include "mcn/algo/result_hash.h"
#include "mcn/algo/skyline_query.h"
#include "mcn/algo/topk_query.h"
#include "mcn/api/wire.h"
#include "mcn/common/macros.h"
#include "mcn/exec/result_cache.h"

namespace mcn::exec {

const char* StallModelName(StallModel model) {
  switch (model) {
    case StallModel::kSerial:
      return "serial";
    case StallModel::kOverlapped:
      return "overlapped";
  }
  return "unknown";
}

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

Status ValidateOptions(const ServiceOptions& options) {
  if (options.num_workers <= 0) {
    return Status::InvalidArgument("QueryService: num_workers must be > 0");
  }
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument("QueryService: queue_capacity must be > 0");
  }
  if (options.max_sessions == 0) {
    return Status::InvalidArgument("QueryService: max_sessions must be > 0");
  }
  return Status::OK();
}

/// A future that is already resolved with a failed result.
std::future<QueryResult> ReadyFailure(Status status) {
  QueryResult failed;
  failed.status = std::move(status);
  failed.result_hash = algo::kFnvOffsetBasis;
  std::promise<QueryResult> promise;
  std::future<QueryResult> future = promise.get_future();
  promise.set_value(std::move(failed));
  return future;
}

}  // namespace

namespace {

/// Everything but the row vectors.
api::QueryResponse ResponseScalars(const QueryResult& result) {
  api::QueryResponse response;
  response.status = result.status;
  response.kind = result.kind;
  response.result_hash = result.result_hash;
  response.buffer_misses = result.stats.buffer_misses;
  response.buffer_accesses = result.stats.buffer_accesses;
  response.exec_seconds = result.stats.exec_seconds;
  response.exhausted = result.exhausted;
  return response;
}

/// Routed-fetch counters of a sharded reader (or of every reader slot of a
/// sharded probe rig), sampled before and after a query so the delta is
/// the query's own local/remote split.
struct RoutedFetches {
  uint64_t local = 0;
  uint64_t remote = 0;

  void ChargeDelta(const RoutedFetches& after, QueryStats* stats) const {
    stats->local_fetches = after.local - local;
    stats->remote_fetches = after.remote - remote;
  }
};

RoutedFetches Routed(const net::NetworkReader* sharded_reader) {
  const auto io = static_cast<const shard::ShardedNetworkReader*>(
                      sharded_reader)
                      ->shard_io_stats();
  return {io.local_fetches, io.remote_fetches};
}

RoutedFetches Routed(const ExpansionExecutor& executor) {
  const auto io = executor.ShardIoStats();
  return {io.local_fetches, io.remote_fetches};
}

}  // namespace

api::QueryResponse QueryResult::ToResponse() const& {
  api::QueryResponse response = ResponseScalars(*this);
  response.skyline = skyline;
  response.topk = topk;
  return response;
}

api::QueryResponse QueryResult::ToResponse() && {
  api::QueryResponse response = ResponseScalars(*this);
  response.skyline = std::move(skyline);
  response.topk = std::move(topk);
  return response;
}

Result<std::unique_ptr<QueryService>> QueryService::Create(
    storage::DiskManager* disk, const net::NetworkFiles& files,
    const ServiceOptions& options) {
  if (disk == nullptr) {
    return Status::InvalidArgument("QueryService: null disk");
  }
  MCN_RETURN_IF_ERROR(ValidateOptions(options));
  if (options.enable_prune_index && files.landmark.present()) {
    // Surface a corrupt/mismatched index as a Create error, not a crash
    // in the constructor (which builds one reader per worker).
    net::LandmarkIndexReader probe(disk, files.landmark);
    MCN_RETURN_IF_ERROR(probe.Validate());
  }
  return std::unique_ptr<QueryService>(
      new QueryService(disk, nullptr, files, {}, options));
}

Result<std::unique_ptr<QueryService>> QueryService::Create(
    shard::ShardedStorage* storage, const shard::ShardedNetworkFiles& files,
    const ServiceOptions& options) {
  if (storage == nullptr) {
    return Status::InvalidArgument("QueryService: null sharded storage");
  }
  if (files.num_shards() != storage->num_shards()) {
    return Status::InvalidArgument(
        "QueryService: storage/files shard count mismatch");
  }
  MCN_RETURN_IF_ERROR(ValidateOptions(options));
  if (options.enable_prune_index && files.landmark.present()) {
    // The global index row file lives on shard 0's disk (DESIGN.md §12).
    net::LandmarkIndexReader probe(storage->disk(0), files.landmark);
    MCN_RETURN_IF_ERROR(probe.Validate());
  }
  return std::unique_ptr<QueryService>(
      new QueryService(nullptr, storage, {}, files, options));
}

QueryService::QueryService(storage::DiskManager* disk,
                           shard::ShardedStorage* storage,
                           const net::NetworkFiles& files,
                           const shard::ShardedNetworkFiles& sharded_files,
                           const ServiceOptions& options)
    : disk_(disk),
      storage_(storage),
      files_(files),
      sharded_files_(sharded_files),
      opts_(options),
      registry_(options.num_workers) {
  // Resolve every instrument once; workers then record lock-free with
  // slot = worker index (exact per-worker slots — the registry rounds the
  // count up to a power of two, never down below num_workers <= 64).
  namespace mn = metric_names;
  metrics_.completed = registry_.GetCounter(mn::kCompleted);
  metrics_.failed = registry_.GetCounter(mn::kFailed);
  metrics_.rejected = registry_.GetCounter(mn::kRejected);
  metrics_.timed_out = registry_.GetCounter(mn::kTimedOut);
  metrics_.cancelled = registry_.GetCounter(mn::kCancelled);
  metrics_.session_batches = registry_.GetCounter(mn::kSessionBatches);
  metrics_.buffer_misses = registry_.GetCounter(mn::kBufferMisses);
  metrics_.buffer_accesses = registry_.GetCounter(mn::kBufferAccesses);
  metrics_.prune_checked = registry_.GetCounter(mn::kPruneChecked);
  metrics_.prune_cut = registry_.GetCounter(mn::kPruneCut);
  metrics_.cache_hit = registry_.GetCounter(mn::kCacheHit);
  metrics_.cache_miss = registry_.GetCounter(mn::kCacheMiss);
  metrics_.cache_coalesced = registry_.GetCounter(mn::kCacheCoalesced);
  metrics_.overlapped_misses = registry_.GetCounter(mn::kOverlappedMisses);
  metrics_.cpu_micros = registry_.GetCounter(mn::kCpuMicros);
  metrics_.stall_micros = registry_.GetCounter(mn::kStallMicros);
  metrics_.queue_micros = registry_.GetCounter(mn::kQueueMicros);
  metrics_.latency_us = registry_.GetHistogram(mn::kLatencyUs);
  const int num_shards = storage != nullptr ? storage->num_shards() : 0;
  for (int s = 0; s < num_shards; ++s) {
    metrics_.shards.push_back(
        {registry_.GetCounter(mn::Shard(s, "completed")),
         registry_.GetCounter(mn::Shard(s, "buffer_misses")),
         registry_.GetCounter(mn::Shard(s, "local_fetches")),
         registry_.GetCounter(mn::Shard(s, "remote_fetches"))});
  }
  const net::LandmarkIndexFiles& landmark_files =
      storage != nullptr ? sharded_files_.landmark : files_.landmark;
  workers_.reserve(opts_.num_workers);
  for (int w = 0; w < opts_.num_workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->reader = MakeReader(&worker->pool);
    if (opts_.enable_prune_index && landmark_files.present()) {
      // Create() validated the index file already; a per-worker reader
      // over the same pages cannot fail differently.
      worker->landmark = std::make_unique<net::LandmarkIndexReader>(
          storage != nullptr ? storage_->disk(0) : disk_, landmark_files);
      MCN_CHECK(worker->landmark->Validate().ok());
    }
    workers_.push_back(std::move(worker));
  }
  if (opts_.result_cache_entries > 0) {
    result_cache_ = std::make_unique<ResultCache>(opts_.result_cache_entries);
  }
  // Freeze the shared storage read-only for the service's lifetime; the
  // storage layer DCHECKs any mutation from here on (DESIGN.md §6).
  if (sharded()) {
    storage_->BeginConcurrentReads();
  } else {
    disk_->BeginConcurrentReads();
  }
  pool_ = std::make_unique<ThreadPool<Task>>(
      opts_.num_workers, opts_.queue_capacity,
      [this](Task&& task, int worker) { Execute(std::move(task), worker); },
      [this](Task&& task) {
        if (task.session != nullptr) {
          task.session->inflight.fetch_sub(1, std::memory_order_acq_rel);
        }
        if (opts_.max_inflight > 0) {
          inflight_.fetch_sub(1, std::memory_order_acq_rel);
        }
        QueryResult discarded;
        discarded.status = Status::FailedPrecondition(
            "query discarded by non-draining shutdown");
        // A flighted task that never runs must still settle its coalesced
        // waiters (shared fate, never a hang).
        AbandonCacheFlight(task, discarded.status);
        task.promise.set_value(std::move(discarded));
      });
}

QueryService::~QueryService() { Shutdown(/*drain=*/true); }

std::unique_ptr<net::NetworkReader> QueryService::MakeReader(
    std::unique_ptr<storage::BufferPool>* flat_pool) const {
  // One construction path for worker readers AND session readers: the
  // session-I/O-parity contract (a stream's logical I/O matches a local
  // run over an equal-capacity pool) holds exactly because both get the
  // same pool budget and split policy.
  if (sharded()) {
    const std::vector<size_t> shard_frames =
        opts_.split_pool_across_shards
            ? shard::SplitFramesAcrossShards(opts_.pool_frames_per_worker,
                                             storage_->num_shards())
            : std::vector<size_t>(
                  static_cast<size_t>(storage_->num_shards()),
                  opts_.pool_frames_per_worker);
    return std::make_unique<shard::ShardedNetworkReader>(
        storage_, sharded_files_, shard_frames);
  }
  *flat_pool = std::make_unique<storage::BufferPool>(
      disk_, opts_.pool_frames_per_worker);
  return std::make_unique<net::NetworkReader>(files_, flat_pool->get());
}

shard::ShardId QueryService::HomeShard(
    const graph::Location& location) const {
  if (!sharded()) return shard::kInvalidShard;
  const shard::Partition& part = storage_->partition();
  if (location.is_node()) {
    return location.node() < part.num_nodes() ? part.of_node(location.node())
                                              : 0;
  }
  return location.edge().u < part.num_nodes() ? part.of_edge(location.edge())
                                              : 0;
}

void QueryService::AbandonCacheFlight(Task& task, const Status& status) {
  if (task.cache_flight == nullptr) return;
  MCN_DCHECK(result_cache_ != nullptr);
  QueryResult failed;
  failed.status = status;
  failed.result_hash = algo::kFnvOffsetBasis;
  result_cache_->Complete(task.cache_flight, task.cache_key,
                          task.cache_epoch, failed);
  task.cache_flight = nullptr;
}

std::future<QueryResult> QueryService::Enqueue(Task&& task) {
  std::future<QueryResult> future = task.promise.get_future();
  if (opts_.max_inflight > 0) {
    // Admission control (DESIGN.md §10): never park the caller. The
    // in-flight ticket is taken optimistically and returned on any
    // rejection; Execute / the discard handler return it at completion.
    if (inflight_.fetch_add(1, std::memory_order_acq_rel) >=
        static_cast<int64_t>(opts_.max_inflight)) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      if (task.session != nullptr) {
        task.session->inflight.fetch_sub(1, std::memory_order_acq_rel);
      }
      metrics_.rejected->Add(1);
      Status shed = Status::ResourceExhausted(
          "QueryService: over max_inflight (" +
          std::to_string(opts_.max_inflight) + "), load shed");
      AbandonCacheFlight(task, shed);
      return ReadyFailure(std::move(shed));
    }
    const auto outcome = pool_->TrySubmit(std::move(task));
    if (outcome == ThreadPool<Task>::TryResult::kAccepted) return future;
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    // TrySubmit left the task unconsumed: a session batch still owns its
    // ticket — return it before resolving.
    if (task.session != nullptr) {
      task.session->inflight.fetch_sub(1, std::memory_order_acq_rel);
    }
    if (outcome == ThreadPool<Task>::TryResult::kFull) {
      metrics_.rejected->Add(1);
      Status shed = Status::ResourceExhausted(
          "QueryService: queue full, load shed");
      AbandonCacheFlight(task, shed);
      return ReadyFailure(std::move(shed));
    }
    Status down = Status::FailedPrecondition("QueryService is shut down");
    AbandonCacheFlight(task, down);
    return ReadyFailure(std::move(down));
  }
  if (!pool_->Submit(std::move(task))) {
    // Shutdown already began: Submit did not consume the task, so a
    // session batch still owns its inflight ticket — return it, and
    // resolve immediately instead of blocking.
    if (task.session != nullptr) {
      task.session->inflight.fetch_sub(1, std::memory_order_acq_rel);
    }
    Status down = Status::FailedPrecondition("QueryService is shut down");
    AbandonCacheFlight(task, down);
    return ReadyFailure(std::move(down));
  }
  return future;
}

std::string QueryService::CanonicalCacheKey(const api::QuerySpec& spec,
                                            uint64_t epoch) {
  // The canonical kExecute wire frame of the spec with execution-strategy
  // fields normalized away: the determinism contract (DESIGN.md §7) makes
  // results byte-identical across engine flavor and parallelism, and a
  // deadline changes when a query fails, never what it returns.
  api::WireRequest request;
  request.type = api::MsgType::kExecute;
  request.spec = spec;
  request.spec.engine = expand::EngineKind::kCea;
  request.spec.parallelism = 0;
  request.spec.deadline_ms = 0;
  std::string key = api::EncodeRequestFrame(request);
  for (int shift = 0; shift < 64; shift += 8) {
    key.push_back(static_cast<char>((epoch >> shift) & 0xff));
  }
  return key;
}

std::future<QueryResult> QueryService::Submit(api::QuerySpec spec) {
  Task task;
  // Adopt the caller's installed trace context (the wire server traces
  // decode/encode under the same query id) or mint a fresh one.
  task.trace = obs::CurrentTraceContext();
  if (!task.trace.active()) task.trace = obs::StartQueryTrace();
  obs::RecordInstant(task.trace, obs::EventType::kAdmission);
  task.enqueue_time = std::chrono::steady_clock::now();
  if (spec.deadline_ms > 0) {
    // The deadline covers the full request lifetime from admission: queue
    // wait counts against it, so an overloaded service times the query out
    // instead of running it long after the client gave up.
    task.has_deadline = true;
    task.deadline =
        task.enqueue_time + std::chrono::milliseconds(spec.deadline_ms);
  }
  task.spec = std::move(spec);
  if (result_cache_ != nullptr) {
    // Cross-query sharing (DESIGN.md §13). Hits and coalesced waiters
    // resolve without entering a queue (and without counting in
    // completed/failed — like rejected, they were never admitted); a miss
    // rides the task as the single-flight owner.
    const uint64_t epoch = network_epoch();
    std::string key = CanonicalCacheKey(task.spec, epoch);
    ResultCache::Lookup lookup = result_cache_->Acquire(key, epoch);
    switch (lookup.outcome) {
      case ResultCache::Lookup::Outcome::kHit: {
        metrics_.cache_hit->Add(1);
        std::promise<QueryResult> ready;
        std::future<QueryResult> future = ready.get_future();
        ready.set_value(std::move(lookup.cached));
        return future;
      }
      case ResultCache::Lookup::Outcome::kCoalesced: {
        metrics_.cache_coalesced->Add(1);
        if (!task.has_deadline) return std::move(lookup.future);
        // A coalesced waiter never enters the queue where deadlines are
        // enforced, and deadline_ms is normalized out of the cache key —
        // so enforce this waiter's own deadline when its future is
        // consumed instead of inheriting the owning flight's unbounded
        // wait. Deferred: runs on the consumer's get()/wait() call.
        return std::async(
            std::launch::deferred,
            [fut = std::move(lookup.future),
             deadline = task.deadline]() mutable -> QueryResult {
              if (fut.wait_until(deadline) == std::future_status::timeout) {
                QueryResult timed_out;
                timed_out.status = Status::DeadlineExceeded(
                    "deadline exceeded while coalesced on an identical "
                    "in-flight query");
                return timed_out;
              }
              return fut.get();
            });
      }
      case ResultCache::Lookup::Outcome::kMiss:
        metrics_.cache_miss->Add(1);
        task.cache_flight = std::move(lookup.flight);
        task.cache_key = std::move(key);
        task.cache_epoch = epoch;
        break;
    }
  }
  return Enqueue(std::move(task));
}

Result<SessionId> QueryService::OpenSession(api::QuerySpec spec) {
  if (spec.kind != QueryKind::kIncrementalTopK) {
    return Status::InvalidArgument(
        "OpenSession: spec kind must be incremental top-k");
  }
  MCN_RETURN_IF_ERROR(spec.Validate(num_costs()));
  auto session = std::make_shared<Session>();
  session->home_shard = HomeShard(spec.location);
  session->spec = std::move(spec);
  session->last_used = std::chrono::steady_clock::now();
  MutexLock lock(&sessions_mu_);
  if (shut_down_) {
    return Status::FailedPrecondition("QueryService is shut down");
  }
  // Lazy idle-timeout eviction runs on *every* open (not only when the
  // table is full), so abandoned sessions release their pools/engines
  // even on a service that never approaches max_sessions.
  EvictExpiredSessions();
  if (sessions_.size() >= opts_.max_sessions && !MakeSessionRoom()) {
    return Status::FailedPrecondition(
        "OpenSession: session table full (" +
        std::to_string(opts_.max_sessions) + " busy sessions)");
  }
  session->id = next_session_id_++;
  sessions_.emplace(session->id, session);
  return session->id;
}

void QueryService::EvictExpiredSessions() {
  if (opts_.session_idle_seconds <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    const Session& s = *it->second;
    const bool idle = s.inflight.load(std::memory_order_acquire) == 0;
    if (idle && std::chrono::duration<double>(now - s.last_used).count() >
                    opts_.session_idle_seconds) {
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

bool QueryService::MakeSessionRoom() {
  // Evict the least-recently-used idle session.
  auto victim = sessions_.end();
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->second->inflight.load(std::memory_order_acquire) != 0) continue;
    if (victim == sessions_.end() ||
        it->second->last_used < victim->second->last_used) {
      victim = it;
    }
  }
  if (victim == sessions_.end()) return false;
  sessions_.erase(victim);
  return true;
}

std::future<QueryResult> QueryService::SessionNext(SessionId id, int n) {
  std::shared_ptr<Session> session;
  {
    MutexLock lock(&sessions_mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return ReadyFailure(Status::NotFound(
          "SessionNext: unknown or evicted session " + std::to_string(id)));
    }
    session = it->second;
    session->inflight.fetch_add(1, std::memory_order_acq_rel);
    session->last_used = std::chrono::steady_clock::now();
  }
  Task task;
  task.batch_n = n;
  task.trace = obs::CurrentTraceContext();
  if (!task.trace.active()) task.trace = obs::StartQueryTrace();
  obs::RecordInstant(task.trace, obs::EventType::kAdmission);
  task.enqueue_time = std::chrono::steady_clock::now();
  if (session->spec.deadline_ms > 0) {
    // A session's deadline applies per batch, re-anchored at each pull.
    task.has_deadline = true;
    task.deadline = task.enqueue_time +
                    std::chrono::milliseconds(session->spec.deadline_ms);
  }
  task.session = std::move(session);
  return Enqueue(std::move(task));
}

Status QueryService::CloseSession(SessionId id) {
  MutexLock lock(&sessions_mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("CloseSession: unknown session " +
                            std::to_string(id));
  }
  // An in-flight batch holds its own shared_ptr and finishes normally.
  sessions_.erase(it);
  return Status::OK();
}

size_t QueryService::num_open_sessions() const {
  MutexLock lock(&sessions_mu_);
  return sessions_.size();
}

void QueryService::Drain() { pool_->Drain(); }

void QueryService::Shutdown(bool drain) {
  {
    MutexLock lock(&sessions_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  pool_->Shutdown(drain);
  {
    // Drop the streams (their pools read the shared storage) before the
    // read-only freeze is lifted.
    MutexLock lock(&sessions_mu_);
    sessions_.clear();
  }
  if (sharded()) {
    storage_->EndConcurrentReads();
  } else {
    disk_->EndConcurrentReads();
  }
}

void QueryService::Execute(Task&& task, int worker_index) {
  Worker& worker = *workers_[worker_index];
  const bool is_session = task.session != nullptr;
  const shard::ShardId home = is_session ? task.session->home_shard
                                         : HomeShard(task.spec.location);
  // Install the query's trace identity for everything this worker (and
  // the probe pool it may fan out to) does on its behalf.
  const obs::TraceContextScope trace_scope(task.trace);
  obs::RecordSpanSince(task.trace, obs::EventType::kQueueWait,
                       task.enqueue_time,
                       static_cast<uint64_t>(worker_index));
  QueryResult result;
  if (task.has_deadline &&
      std::chrono::steady_clock::now() >= task.deadline) {
    // Expired while queued: resolve without executing — the whole point of
    // a deadline under overload (DESIGN.md §10).
    result.status = Status::DeadlineExceeded(
        "query deadline expired before execution");
    result.kind =
        is_session ? QueryKind::kIncrementalTopK : task.spec.kind;
    result.result_hash = algo::kFnvOffsetBasis;
  } else {
    CancelToken token;
    if (task.has_deadline) token.ArmDeadline(task.deadline);
    const CancelToken* cancel = task.has_deadline ? &token : nullptr;
    obs::TraceSpan exec_span(
        obs::EventType::kExec,
        static_cast<uint64_t>(is_session ? QueryKind::kIncrementalTopK
                                         : task.spec.kind));
    result = is_session
                 ? RunSessionBatch(*task.session, task.batch_n, cancel)
                 : RunQuery(task.spec, worker, home, cancel);
  }
  if (is_session) {
    obs::RecordInstant(task.trace, obs::EventType::kSessionBatch,
                       static_cast<uint64_t>(task.batch_n));
  }
  result.stats.worker = worker_index;
  result.stats.shard = sharded() ? static_cast<int>(home) : -1;
  // exec_seconds excludes any stall already slept at turn barriers, so
  // subtract both shares or the queue wait would absorb the slept time.
  result.stats.queue_seconds = SecondsSince(task.enqueue_time) -
                               result.stats.exec_seconds -
                               result.stats.stall_slept_seconds;
  // Modeled I/O charge per the query's effective stall model (DESIGN.md
  // §13): the serial per-miss sum, or the overlapped per-turn-max charge
  // RunQuery computed for turn-mode queries.
  const bool overlapped =
      result.stats.stall_model == StallModel::kOverlapped;
  result.stats.stall_seconds =
      static_cast<double>(overlapped ? result.stats.overlapped_misses
                                     : result.stats.buffer_misses) *
      opts_.io_latency_ms / 1000.0;
  if (opts_.simulate_io_stalls) {
    // The overlapped model already slept per turn at the barriers; only
    // the residual (serial-charged seeding misses, rounding) is left.
    const double residual =
        result.stats.stall_seconds - result.stats.stall_slept_seconds;
    if (residual > 0) {
      const auto stall_start = std::chrono::steady_clock::now();
      std::this_thread::sleep_for(std::chrono::duration<double>(residual));
      obs::RecordSpanSince(task.trace, obs::EventType::kStall, stall_start,
                           overlapped ? result.stats.overlapped_misses
                                      : result.stats.buffer_misses);
    }
  }
  result.stats.latency_seconds = SecondsSince(task.enqueue_time);
  // The whole-request span, admission -> completion (encloses the queue
  // wait and exec spans at equal start timestamp).
  obs::RecordSpanSince(task.trace, obs::EventType::kQuery, task.enqueue_time,
                       static_cast<uint64_t>(result.kind));
  // Service aggregation: shared lock-free instruments, slot = worker
  // index — no mutex, no cross-worker cache-line traffic (DESIGN.md §11).
  const int slot = worker_index;
  if (result.status.ok()) {
    metrics_.completed->Add(1, slot);
    if (is_session) metrics_.session_batches->Add(1, slot);
    if (sharded()) metrics_.shards[home].completed->Add(1, slot);
  } else {
    metrics_.failed->Add(1, slot);
    if (result.status.code() == StatusCode::kDeadlineExceeded) {
      metrics_.timed_out->Add(1, slot);
    } else if (result.status.code() == StatusCode::kCancelled) {
      metrics_.cancelled->Add(1, slot);
    }
  }
  metrics_.latency_us->Record(
      static_cast<uint64_t>(result.stats.latency_seconds * 1e6), slot);
  metrics_.buffer_misses->Add(result.stats.buffer_misses, slot);
  metrics_.buffer_accesses->Add(result.stats.buffer_accesses, slot);
  if (overlapped) {
    metrics_.overlapped_misses->Add(result.stats.overlapped_misses, slot);
  }
  if (result.stats.prune_checked > 0) {
    metrics_.prune_checked->Add(result.stats.prune_checked, slot);
    metrics_.prune_cut->Add(result.stats.prune_cut, slot);
    obs::RecordInstant(task.trace, obs::EventType::kProbePrune,
                       result.stats.prune_cut, result.stats.prune_checked);
  }
  metrics_.cpu_micros->Add(
      static_cast<uint64_t>(result.stats.exec_seconds * 1e6), slot);
  metrics_.stall_micros->Add(
      static_cast<uint64_t>(result.stats.stall_seconds * 1e6), slot);
  metrics_.queue_micros->Add(
      static_cast<uint64_t>(std::max(result.stats.queue_seconds, 0.0) * 1e6),
      slot);
  if (sharded()) {
    const Metrics::ShardCounters& row = metrics_.shards[home];
    row.buffer_misses->Add(result.stats.buffer_misses, slot);
    row.local_fetches->Add(result.stats.local_fetches, slot);
    row.remote_fetches->Add(result.stats.remote_fetches, slot);
  }
  if (opts_.flight_recorder != nullptr) {
    obs::QueryDigest digest;
    digest.trace_query_id = task.trace.query_id;
    digest.kind = is_session ? "session"
                             : api::QueryKindName(task.spec.kind);
    digest.worker = worker_index;
    digest.shard = result.stats.shard;
    digest.status = std::string(StatusCodeToString(result.status.code()));
    digest.session_batch = is_session;
    digest.queue_ms = result.stats.queue_seconds * 1e3;
    digest.exec_ms = result.stats.exec_seconds * 1e3;
    digest.stall_ms = result.stats.stall_seconds * 1e3;
    digest.latency_ms = result.stats.latency_seconds * 1e3;
    digest.buffer_misses = result.stats.buffer_misses;
    digest.buffer_accesses = result.stats.buffer_accesses;
    digest.result_hash = result.result_hash;
    // The spec as a replayable kExecute wire frame. A session batch is
    // approximated as a one-shot incremental pull of this batch's size —
    // the closest stateless reproduction of the stream position.
    api::WireRequest replay;
    replay.type = api::MsgType::kExecute;
    replay.spec = is_session ? task.session->spec : task.spec;
    if (is_session) replay.spec.k = task.batch_n;
    digest.spec_frame_hex = obs::ToHex(api::EncodeRequestFrame(replay));
    opts_.flight_recorder->Record(std::move(digest));
  }
  if (is_session) {
    // A batch is "in flight" for eviction purposes until its completion is
    // client-visible — which includes the modeled I/O stall slept above.
    // Returning the ticket any earlier (the old code did, before the
    // stall) leaves the session evictable with an aging timestamp while
    // the client is still blocked on this very batch: a stall longer than
    // session_idle_seconds let the lazy timeout sweep reclaim an actively
    // streamed session. So: refresh last_used first, then return the
    // ticket — the eviction window reopens only with a fresh timestamp.
    {
      MutexLock lock(&sessions_mu_);
      task.session->last_used = std::chrono::steady_clock::now();
    }
    task.session->inflight.fetch_sub(1, std::memory_order_acq_rel);
  }
  if (task.cache_flight != nullptr) {
    // Publish before resolving the owner's promise: waiters and the store
    // are settled by the time any client sees the result. Failures (and
    // stale epochs) are not stored; waiters share the flight's fate.
    result_cache_->Complete(task.cache_flight, task.cache_key,
                            task.cache_epoch, result);
  }
  task.promise.set_value(std::move(result));
  if (opts_.max_inflight > 0) {
    // Return the admission ticket last: the query is no longer in flight.
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

QueryResult QueryService::RunSessionBatch(Session& session, int n,
                                          const CancelToken* cancel) {
  QueryResult result;
  result.kind = QueryKind::kIncrementalTopK;
  result.result_hash = algo::kFnvOffsetBasis;
  if (n < 0) {
    result.status =
        Status::InvalidArgument("SessionNext: batch size must be >= 0");
    return result;
  }
  // One batch at a time per session; concurrent SessionNext calls on the
  // same id serialize here (each on whichever worker dequeued it).
  MutexLock lock(&session.mu);
  Stopwatch watch;
  if (session.reader == nullptr) {
    // First batch: build the session's private reader set (no I/O yet —
    // pools start empty) and pin it for the stream's lifetime.
    session.reader = MakeReader(&session.pool);
    if (sharded()) {
      static_cast<shard::ShardedNetworkReader*>(session.reader.get())
          ->set_home_shard(session.home_shard);
    }
  }
  const storage::BufferPool::Stats before = session.reader->PoolStats();
  RoutedFetches routed_before;
  if (sharded()) routed_before = Routed(session.reader.get());
  if (session.engine == nullptr) {
    // Engine construction does I/O (expansion seeding), charged to this
    // first batch — the same accounting as a local run that builds its
    // iterator and pulls, which keeps session logical I/O comparable to
    // a fresh IncrementalTopK over an equal-capacity pool. The engine
    // stays warm across batches — what distinguishes a session from
    // re-running "first k" queries.
    auto engine = expand::MakeEngine(session.spec.engine,
                                     session.reader.get(),
                                     session.spec.location);
    if (!engine.ok()) {
      result.status = engine.status();
      return result;
    }
    session.engine = std::move(engine).value();
    session.query = std::make_unique<algo::IncrementalTopK>(
        session.engine.get(),
        algo::WeightedSum(session.spec.preference.weights));
  }
  // Pull until n rows pass the caps (streaming constraint semantics: a
  // constrained batch still fills up, DESIGN.md §9) or the component is
  // exhausted.
  const auto& constraints = session.spec.preference.constraints;
  // The token lives on this worker's stack; install it for the batch only
  // — the engine outlives it across batches.
  session.engine->SetCancelToken(cancel);
  auto batch = session.query->NextBatch(
      n, [&constraints](const algo::TopKEntry& row) {
        return algo::PassesCaps(constraints, row);
      });
  session.engine->SetCancelToken(nullptr);
  if (!batch.ok()) {
    result.status = batch.status();
    return result;
  }
  result.topk = std::move(batch).value();
  result.exhausted = session.query->exhausted();
  result.stats.exec_seconds = watch.ElapsedSeconds();
  const storage::BufferPool::Stats after = session.reader->PoolStats();
  result.stats.buffer_misses = after.misses - before.misses;
  result.stats.buffer_accesses = after.accesses() - before.accesses();
  if (sharded()) {
    routed_before.ChargeDelta(Routed(session.reader.get()), &result.stats);
  }
  result.result_hash = algo::HashResult(result.topk);
  return result;
}

QueryResult QueryService::RunQuery(const api::QuerySpec& spec,
                                   Worker& worker, shard::ShardId home,
                                   const CancelToken* cancel) {
  QueryResult result;
  result.kind = spec.kind;
  result.result_hash = algo::kFnvOffsetBasis;

  // Full semantic validation on the executing worker: malformed specs —
  // wrong-size/negative weights, bad k, bad constraints — surface as an
  // error result (rejectable over the wire), never a CHECK crash.
  Status valid = spec.Validate(num_costs());
  if (!valid.ok()) {
    result.status = std::move(valid);
    return result;
  }

  // Intra-query parallelism: 0 = classic serial path; 1 = inline turn
  // schedule over the worker's own reader; > 1 = pooled turns on the
  // worker's ExpansionExecutor (clamped to the service's configuration).
  int par = std::min<int>(spec.parallelism, opts_.per_query_parallelism);
  if (par > 1 && worker.expansion == nullptr) {
    // Built lazily on the first parallel request, so a service whose
    // clients never opt in pays no probe threads or extra pools. Safe
    // here: a worker runs one query at a time on its own thread.
    auto executor =
        sharded()
            ? ExpansionExecutor::Create(storage_, sharded_files_,
                                        opts_.per_query_parallelism,
                                        opts_.pool_frames_per_worker,
                                        opts_.split_pool_across_shards)
            : ExpansionExecutor::Create(disk_, files_,
                                        opts_.per_query_parallelism,
                                        opts_.pool_frames_per_worker);
    MCN_CHECK(executor.ok());
    worker.expansion = std::move(executor).value();
  }
  const bool turn_mode = par >= 1;
  const bool pooled = par > 1;

  // Cold pools per query (the paper's independent-query model; also what
  // makes per-query miss counts deterministic across worker counts).
  worker.reader->ResetIoState();
  if (worker.expansion != nullptr) worker.expansion->ResetIoState();
  // The index pool follows the same model, so a query's prune I/O is
  // deterministic regardless of what ran before.
  if (worker.landmark != nullptr) worker.landmark->ResetIoState();
  auto routed_now = [&]() {
    return pooled ? Routed(*worker.expansion) : Routed(worker.reader.get());
  };
  RoutedFetches routed_before;
  if (sharded()) {
    // Any worker runs any query: bind the readers serving this one to its
    // home shard so the local/remote split is the query's own.
    static_cast<shard::ShardedNetworkReader*>(worker.reader.get())
        ->set_home_shard(home);
    if (pooled) worker.expansion->SetHomeShard(home);
    routed_before = routed_now();
  }
  auto io_now = [&]() -> storage::BufferPool::Stats {
    storage::BufferPool::Stats s = pooled ? worker.expansion->PoolStats()
                                          : worker.reader->PoolStats();
    if (worker.landmark != nullptr) {
      // Honest I/O accounting: what the oracle spends on index pages is
      // part of the query's miss total, not hidden in a side pool.
      const storage::BufferPool::Stats li = worker.landmark->pool().stats();
      s.hits += li.hits;
      s.misses += li.misses;
      s.evictions += li.evictions;
    }
    return s;
  };
  const storage::BufferPool::Stats before = io_now();

  Stopwatch watch;
  std::unique_ptr<expand::NnEngine> engine_holder;
  std::unique_ptr<expand::ParallelProbeScheduler> scheduler;
  if (pooled) {
    auto rig_or = worker.expansion->NewQuery(spec.location);
    if (!rig_or.ok()) {
      result.status = rig_or.status();
      return result;
    }
    ExpansionExecutor::QueryRig rig = std::move(rig_or).value();
    engine_holder = std::move(rig.engine);
    scheduler = std::move(rig.scheduler);
  } else if (turn_mode) {
    // Inline turns need no thread-safe provider: the plain CEA engine
    // over the worker's reader runs the identical schedule (record
    // contents and pop order match the striped cache) without paying for
    // 64 stripes + single-flight machinery per query.
    auto engine_or = expand::CeaEngine::Create(worker.reader.get(),
                                               spec.location);
    if (!engine_or.ok()) {
      result.status = engine_or.status();
      return result;
    }
    scheduler = std::make_unique<expand::ParallelProbeScheduler>(
        engine_or.value().get(), /*pool=*/nullptr, /*striped=*/nullptr);
    engine_holder = std::move(engine_or).value();
  } else {
    auto engine_or = expand::MakeEngine(spec.engine, worker.reader.get(),
                                        spec.location);
    if (!engine_or.ok()) {
      result.status = engine_or.status();
      return result;
    }
    engine_holder = std::move(engine_or).value();
  }
  // Turn-level overlapped I/O (DESIGN.md §13): arm the scheduler to
  // sample per-probe miss deltas — and optionally sleep the turn's max at
  // the barrier and/or replay the turn's misses as one batched read.
  //
  // Miss recording is scoped to this query: the pools are persistent, and
  // a later serial-path query (scheduler == nullptr) has no barrier to
  // drain them, so leaving recording armed would grow the miss log
  // without bound on serial-heavy workloads.
  struct MissRecordingGuard {
    std::vector<storage::BufferPool*> pools;
    ~MissRecordingGuard() {
      for (storage::BufferPool* pool : pools) {
        pool->set_record_misses(false);
        (void)pool->DrainMissedPages();
      }
    }
  } miss_recording;
  if (scheduler != nullptr &&
      (opts_.stall_model == StallModel::kOverlapped ||
       opts_.replay_batch_io)) {
    expand::ParallelProbeScheduler::TurnIoOptions io;
    if (pooled) {
      ExpansionExecutor* rig = worker.expansion.get();
      io.slot_misses = [rig](int reader_slot) {
        return rig->readers()[static_cast<size_t>(reader_slot)]
            ->PoolStats()
            .misses;
      };
    } else {
      net::NetworkReader* reader = worker.reader.get();
      io.slot_misses = [reader](int) { return reader->PoolStats().misses; };
    }
    if (opts_.stall_model == StallModel::kOverlapped &&
        opts_.simulate_io_stalls) {
      io.sleep_latency_ms = opts_.io_latency_ms;
    }
    if (opts_.replay_batch_io && !sharded() &&
        disk_->io_backend() != storage::IoBackendKind::kMemory) {
      // Physical replay is flat + file-backed only: sharded disks have no
      // image, and a memory backend would make the replay a pure memcpy
      // exercise. Pools log their missed PageIds; the barrier drains the
      // logs into one ReadPagesBatch. Stale entries from a previous query
      // are drained away before arming.
      if (pooled) {
        for (const auto& slot_reader : worker.expansion->readers()) {
          miss_recording.pools.push_back(slot_reader->pool());
        }
      } else {
        miss_recording.pools.push_back(worker.pool.get());
      }
      for (storage::BufferPool* pool : miss_recording.pools) {
        pool->set_record_misses(true);
        (void)pool->DrainMissedPages();
      }
      io.drain_missed = [pools = miss_recording.pools](
                            std::vector<storage::PageId>* out) {
        for (storage::BufferPool* pool : pools) {
          std::vector<storage::PageId> drained = pool->DrainMissedPages();
          out->insert(out->end(), drained.begin(), drained.end());
        }
      };
      io.batch_disk = disk_;
    }
    scheduler->SetTurnIo(std::move(io));
  }
  expand::NnEngine* engine = engine_holder.get();
  // Cooperative cancellation: the expansions check the token per settle,
  // the turn scheduler at every barrier. Engine and token die with this
  // call, so no clearing is needed.
  engine->SetCancelToken(cancel);
  algo::QueryOptions exec;
  exec.parallelism = par;
  exec.scheduler = scheduler.get();

  const auto& constraints = spec.preference.constraints;
  switch (spec.kind) {
    case QueryKind::kSkyline: {
      algo::SkylineOptions sky_opts;
      sky_opts.exec = exec;
      // The query gates internally (serial round-robin only); passing the
      // reader on turn-mode requests is a documented no-op.
      sky_opts.exec.landmark_index = worker.landmark.get();
      algo::SkylineQuery query(engine, sky_opts);
      auto rows = query.ComputeAll();
      if (!rows.ok()) {
        result.status = rows.status();
        return result;
      }
      result.skyline = std::move(rows).value();
      result.stats.prune_checked = query.stats().prune_checked;
      result.stats.prune_cut = query.stats().prune_cut;
      break;
    }
    case QueryKind::kTopK: {
      algo::TopKOptions topk_opts;
      topk_opts.k = spec.k;
      topk_opts.exec = exec;
      algo::TopKQuery query(engine,
                            algo::WeightedSum(spec.preference.weights),
                            topk_opts);
      auto rows = query.Run();
      if (!rows.ok()) {
        result.status = rows.status();
        return result;
      }
      result.topk = std::move(rows).value();
      break;
    }
    case QueryKind::kIncrementalTopK: {
      algo::IncrementalTopK query(engine,
                                  algo::WeightedSum(spec.preference.weights),
                                  algo::ProbePolicy::kRoundRobin, exec);
      // First-k pull with streaming caps (same row-for-row semantics as a
      // session over this spec; unconstrained it is the classic k-pull).
      auto batch = query.NextBatch(
          spec.k, [&constraints](const algo::TopKEntry& row) {
            return algo::PassesCaps(constraints, row);
          });
      if (!batch.ok()) {
        result.status = batch.status();
        return result;
      }
      result.topk = std::move(batch).value();
      result.exhausted = query.exhausted();
      break;
    }
  }
  // Post-dominance constraint filter (algo/constraints.h): an exact no-op
  // for unconstrained specs — result hashes stay byte-identical. The
  // incremental path filtered while pulling (above), so caps are already
  // satisfied and re-applying is idempotent.
  if (!constraints.Unconstrained()) {
    if (spec.kind == QueryKind::kSkyline) {
      algo::ApplyConstraints(constraints, &result.skyline);
    } else {
      algo::ApplyConstraints(constraints, &result.topk);
    }
  }
  result.stats.exec_seconds = watch.ElapsedSeconds();

  const storage::BufferPool::Stats after = io_now();
  result.stats.buffer_misses = after.misses - before.misses;
  result.stats.buffer_accesses = after.accesses() - before.accesses();
  if (sharded()) routed_before.ChargeDelta(routed_now(), &result.stats);

  if (scheduler != nullptr && opts_.stall_model == StallModel::kOverlapped) {
    // Overlapped charge = the scheduler's per-turn max sum, plus the
    // serial residue: misses outside any probe (engine seeding), which
    // nothing overlapped.
    const expand::ParallelProbeScheduler::Stats& turns = scheduler->stats();
    const uint64_t residue =
        result.stats.buffer_misses > turns.probe_misses
            ? result.stats.buffer_misses - turns.probe_misses
            : 0;
    result.stats.stall_model = StallModel::kOverlapped;
    result.stats.overlapped_misses = turns.overlapped_misses + residue;
    result.stats.stall_slept_seconds = turns.slept_seconds;
    // The watch ran through the barrier sleeps; keep exec_seconds pure
    // compute like the serial model's (whose stall is slept outside it).
    result.stats.exec_seconds =
        std::max(0.0, result.stats.exec_seconds - turns.slept_seconds);
  }

  // Hashed outside the measured window, like the bench harness; the hash
  // covers exactly the rows the client receives (post-constraint).
  result.result_hash = spec.kind == QueryKind::kSkyline
                           ? algo::HashResult(result.skyline)
                           : algo::HashResult(result.topk);
  return result;
}

obs::Snapshot QueryService::MetricsSnapshot() const {
  namespace mn = metric_names;
  obs::Snapshot snap = registry_.TakeSnapshot();
  // Disk I/O totals, merged across shard disks by the same name-keyed path
  // the per-file stats use.
  const storage::DiskManager::Stats disk_io =
      sharded() ? storage_->MergedStats() : disk_->stats();
  snap.AddCounter(mn::kDiskPageReads, disk_io.page_reads);
  snap.AddCounter(mn::kDiskPageWrites, disk_io.page_writes);
  // Batched-read slice (DESIGN.md §13): zero rows until a turn replay or
  // an explicit ReadPagesBatch touches the disk, so the introspection
  // surface is stable either way.
  snap.AddCounter(mn::kIoBatchReads, disk_io.batch_reads);
  snap.AddCounter(mn::kIoBatchPages, disk_io.batch_pages);
  snap.AddCounter(mn::kIoBatchMaxPages, disk_io.batch_max_pages);
  for (const auto& file : disk_io.per_file_reads) {
    snap.AddCounter("mcn.disk.file." + file.name + ".reads", file.reads);
  }
  if (result_cache_ != nullptr) {
    const ResultCache::Stats cache = result_cache_->stats();
    snap.AddCounter(mn::kCacheEvictions, cache.evictions);
    snap.SetGauge(mn::kCacheEntries, static_cast<double>(cache.entries));
  }
  snap.SetGauge(mn::kNetworkEpoch, static_cast<double>(network_epoch()));
  snap.SetGauge(mn::kOpenSessions,
                static_cast<double>(num_open_sessions()));
  snap.SetGauge(mn::kWallSeconds, uptime_.ElapsedSeconds());
  snap.SetGauge(mn::kNumShards,
                sharded() ? static_cast<double>(storage_->num_shards()) : 0);
  return snap;
}

void QueryService::BumpNetworkEpoch() {
  const uint64_t next =
      network_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (result_cache_ != nullptr) result_cache_->InvalidateAll(next);
}

ServiceStats QueryService::Snapshot() const {
  // One merge path (DESIGN.md §11): ServiceStats is a view over the
  // registry snapshot — nothing is aggregated here that MetricsSnapshot
  // (and hence the wire introspection) does not also expose.
  return ServiceStatsFromSnapshot(MetricsSnapshot());
}

void QueryService::ResetStats() {
  registry_.ResetAll();
  uptime_.Restart();
}

}  // namespace mcn::exec
