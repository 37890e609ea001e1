// Concurrent query-service throughput/latency benchmark (DESIGN.md §6).
//
// Builds the fig. 8(a) base instance (the paper's default skyline
// configuration at MCN_BENCH_SCALE), then serves the same fixed set of
// skyline queries through an exec::QueryService at 1/2/4/8 workers, for
// both engine flavors. Each worker owns its own LRU pool (sized exactly
// like the single-threaded experiments) over the shared read-only disk;
// per-miss I/O stalls are slept for real (MCN_SERVICE_STALL_US per miss),
// so the measured wall-clock QPS reflects genuinely overlapped I/O — the
// effect the executor exists to exploit.
//
// Output: one PrintRow per worker count (the JSON rows carry the
// mcn-bench-v2 latency_p50/p95/p99_ms + qps fields) plus a speedup
// summary. The run aborts if
//   * any worker count produces a result hash or per-query buffer-miss
//     count different from direct single-threaded execution, or
//   * QPS at 4 workers is below MCN_SERVICE_MIN_SPEEDUP (default 2.5) x
//     the QPS at 1 worker for either engine.
//
// Extra environment knobs (on top of the harness ones):
//   MCN_SERVICE_REQUESTS     queries per sweep point      (default 96;
//                            keep >= ~2x workers x the miss-count skew, or
//                            the longest queries dominate the makespan)
//   MCN_SERVICE_STALL_US     slept stall per miss, in us  (default 20;
//                            modeled_seconds still uses MCN_IO_LATENCY_MS)
//   MCN_SERVICE_MIN_SPEEDUP  abort threshold, 0 disables  (default 2.5)
//
// A second figure ("Service result cache", DESIGN.md §13) replays a
// Zipf-skewed stream of repeated queries (MCN_SERVICE_CACHE_REQUESTS,
// default 192, over ~16 distinct locations) twice — result cache off vs
// on (64 entries) — at 4 workers with the same slept stalls. Every
// response hash is checked against the single-threaded reference; the run
// aborts on any mismatch and fails when the cached QPS is below
// MCN_SERVICE_CACHE_MIN_SPEEDUP (default 2.0) x the uncached QPS.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <vector>

#include "harness.h"
#include "mcn/algo/result_hash.h"
#include "mcn/algo/skyline_query.h"
#include "mcn/api/query_spec.h"
#include "mcn/common/macros.h"
#include "mcn/common/random.h"
#include "mcn/common/stopwatch.h"
#include "mcn/exec/query_service.h"
#include "mcn/gen/workload.h"

namespace mcn::bench {
namespace {

struct ServiceRun {
  RunMetrics metrics;
  std::vector<uint64_t> hashes;  ///< per request, submission order
  std::vector<uint64_t> misses;  ///< per request, submission order
  obs::Snapshot snapshot;        ///< registry snapshot at shutdown
};

struct Reference {
  std::vector<uint64_t> hashes;
  std::vector<uint64_t> misses;
  double avg_result_size = 0;
};

// Direct single-threaded execution on the instance's own pool/reader —
// the parity anchor every service run is compared against.
Reference DirectReference(gen::Instance& instance, expand::EngineKind kind,
                          const std::vector<graph::Location>& locations) {
  Reference ref;
  double total_size = 0;
  for (const graph::Location& loc : locations) {
    instance.ResetIoState();
    auto engine = expand::MakeEngine(kind, instance.reader.get(), loc);
    MCN_CHECK(engine.ok());
    algo::SkylineQuery query(engine.value().get());
    auto rows = query.ComputeAll();
    MCN_CHECK(rows.ok());
    ref.hashes.push_back(algo::HashResult(rows.value()));
    ref.misses.push_back(instance.pool->stats().misses);
    total_size += static_cast<double>(rows.value().size());
  }
  ref.avg_result_size = total_size / static_cast<double>(locations.size());
  return ref;
}

ServiceRun RunService(gen::Instance& instance, expand::EngineKind kind,
                      int workers, double stall_us, const BenchEnv& env,
                      const std::vector<graph::Location>& locations) {
  exec::ServiceOptions opts;
  opts.num_workers = workers;
  opts.queue_capacity = locations.size() + 1;
  opts.pool_frames_per_worker = instance.pool->capacity();
  opts.io_latency_ms = stall_us / 1000.0;
  opts.simulate_io_stalls = stall_us > 0;
  auto service =
      exec::QueryService::Create(&instance.disk, instance.files, opts);
  MCN_CHECK(service.ok());

  std::vector<std::future<exec::QueryResult>> futures;
  futures.reserve(locations.size());
  Stopwatch wall;
  for (const graph::Location& loc : locations) {
    api::QuerySpec spec = api::SkylineSpec(loc);
    spec.engine = kind;
    futures.push_back((*service)->Submit(std::move(spec)));
  }

  ServiceRun run;
  run.metrics.queries = static_cast<int>(locations.size());
  for (auto& future : futures) {
    exec::QueryResult result = future.get();
    MCN_CHECK(result.status.ok());
    run.hashes.push_back(result.result_hash);
    run.misses.push_back(result.stats.buffer_misses);
    run.metrics.result_hash =
        algo::FnvMixU64(run.metrics.result_hash, result.result_hash);
    run.metrics.result_size +=
        static_cast<double>(result.skyline.size());
    run.metrics.cpu_seconds += result.stats.exec_seconds;
    run.metrics.buffer_misses += result.stats.buffer_misses;
    run.metrics.buffer_accesses += result.stats.buffer_accesses;
    // Modeled time stays on the harness's I/O latency so rows are
    // comparable with the single-threaded figure benchmarks.
    run.metrics.modeled_seconds +=
        result.stats.exec_seconds +
        static_cast<double>(result.stats.buffer_misses) *
            env.io_latency_ms / 1000.0;
  }
  double wall_seconds = wall.ElapsedSeconds();
  run.metrics.result_size /= static_cast<double>(locations.size());

  exec::ServiceStats stats = (*service)->Snapshot();
  run.metrics.latency_p50_ms = stats.latency_p50_ms;
  run.metrics.latency_p95_ms = stats.latency_p95_ms;
  run.metrics.latency_p99_ms = stats.latency_p99_ms;
  run.metrics.qps =
      static_cast<double>(locations.size()) / wall_seconds;
  run.snapshot = (*service)->MetricsSnapshot();
  (*service)->Shutdown();
  return run;
}

void CheckParity(const char* engine, int workers, const Reference& ref,
                 const ServiceRun& run) {
  MCN_CHECK(ref.hashes.size() == run.hashes.size());
  for (size_t i = 0; i < ref.hashes.size(); ++i) {
    if (ref.hashes[i] != run.hashes[i]) {
      std::fprintf(stderr,
                   "PARITY FAILURE: %s workers=%d query %zu hash "
                   "%016" PRIx64 " != single-threaded %016" PRIx64 "\n",
                   engine, workers, i, run.hashes[i], ref.hashes[i]);
      std::abort();
    }
    if (ref.misses[i] != run.misses[i]) {
      std::fprintf(stderr,
                   "PARITY FAILURE: %s workers=%d query %zu misses "
                   "%" PRIu64 " != single-threaded %" PRIu64 "\n",
                   engine, workers, i, run.misses[i], ref.misses[i]);
      std::abort();
    }
  }
}

// One leg of the result-cache figure: serves `order` (indexes into
// `distinct`) through a 4-worker service after a one-pass warmup, checks
// every response hash against the reference, and measures replay QPS.
ServiceRun RunCacheLeg(gen::Instance& instance, size_t cache_entries,
                       double stall_us, const BenchEnv& env,
                       const std::vector<graph::Location>& distinct,
                       const std::vector<size_t>& order,
                       const Reference& ref) {
  exec::ServiceOptions opts;
  opts.num_workers = 4;
  opts.queue_capacity = order.size() + distinct.size() + 1;
  opts.pool_frames_per_worker = instance.pool->capacity();
  opts.io_latency_ms = stall_us / 1000.0;
  opts.simulate_io_stalls = stall_us > 0;
  opts.result_cache_entries = cache_entries;
  auto service =
      exec::QueryService::Create(&instance.disk, instance.files, opts);
  MCN_CHECK(service.ok());

  auto submit = [&](const graph::Location& loc) {
    api::QuerySpec spec;
    spec.kind = exec::QueryKind::kSkyline;
    spec.engine = expand::EngineKind::kCea;
    spec.location = loc;
    return (*service)->Submit(std::move(spec));
  };

  // Warmup pass: each distinct query once, so the cached leg measures
  // steady-state hits (the uncached leg pays the same pass for fairness).
  std::vector<std::future<exec::QueryResult>> warm;
  warm.reserve(distinct.size());
  for (const graph::Location& loc : distinct) warm.push_back(submit(loc));
  for (size_t i = 0; i < warm.size(); ++i) {
    exec::QueryResult result = warm[i].get();
    MCN_CHECK(result.status.ok());
    MCN_CHECK(result.result_hash == ref.hashes[i]);
  }
  (*service)->Drain();

  std::vector<std::future<exec::QueryResult>> futures;
  futures.reserve(order.size());
  Stopwatch wall;
  for (size_t idx : order) futures.push_back(submit(distinct[idx]));

  ServiceRun run;
  run.metrics.queries = static_cast<int>(order.size());
  for (size_t i = 0; i < futures.size(); ++i) {
    exec::QueryResult result = futures[i].get();
    MCN_CHECK(result.status.ok());
    if (result.result_hash != ref.hashes[order[i]]) {
      std::fprintf(stderr,
                   "PARITY FAILURE: cache=%zu request %zu hash %016" PRIx64
                   " != single-threaded %016" PRIx64 "\n",
                   cache_entries, i, result.result_hash,
                   ref.hashes[order[i]]);
      std::abort();
    }
    run.metrics.result_hash =
        algo::FnvMixU64(run.metrics.result_hash, result.result_hash);
    run.metrics.result_size += static_cast<double>(result.skyline.size());
    run.metrics.cpu_seconds += result.stats.exec_seconds;
    // Cache hits return sanitized stats (zero misses): the aggregate
    // counts only the work actually executed during the replay.
    run.metrics.buffer_misses += result.stats.buffer_misses;
    run.metrics.buffer_accesses += result.stats.buffer_accesses;
    run.metrics.modeled_seconds +=
        result.stats.exec_seconds +
        static_cast<double>(result.stats.buffer_misses) *
            env.io_latency_ms / 1000.0;
  }
  double wall_seconds = wall.ElapsedSeconds();
  run.metrics.result_size /= static_cast<double>(order.size());
  run.metrics.qps = static_cast<double>(order.size()) / wall_seconds;

  exec::ServiceStats stats = (*service)->Snapshot();
  run.metrics.latency_p50_ms = stats.latency_p50_ms;
  run.metrics.latency_p95_ms = stats.latency_p95_ms;
  run.metrics.latency_p99_ms = stats.latency_p99_ms;
  run.snapshot = (*service)->MetricsSnapshot();
  (*service)->Shutdown();
  return run;
}

int Main() {
  BenchEnv env = BenchEnv::FromEnvironment();
  const int num_requests =
      static_cast<int>(EnvDouble("MCN_SERVICE_REQUESTS", 96));
  const double stall_us = EnvDouble("MCN_SERVICE_STALL_US", 20.0);
  const double min_speedup = EnvDouble("MCN_SERVICE_MIN_SPEEDUP", 2.5);
  MCN_CHECK(num_requests > 0 && stall_us >= 0);

  gen::ExperimentConfig config;  // fig. 8(a) base: the paper's defaults
  gen::ExperimentConfig scaled = config.Scaled(env.scale);
  std::printf("building instance (%s)...\n", scaled.ToString().c_str());
  auto instance = gen::BuildInstance(scaled);
  MCN_CHECK(instance.ok());

  Random rng(2026);
  std::vector<graph::Location> locations;
  locations.reserve(num_requests);
  for (int i = 0; i < num_requests; ++i) {
    locations.push_back((*instance)->RandomQueryLocation(rng));
  }

  std::printf("computing single-threaded reference (%d queries)...\n",
              num_requests);
  Reference ref_lsa =
      DirectReference(**instance, expand::EngineKind::kLsa, locations);
  Reference ref_cea =
      DirectReference(**instance, expand::EngineKind::kCea, locations);

  PrintHeader("Service throughput: skyline QPS vs workers (fig. 8(a) base)",
              "workers", scaled, env);
  std::printf(
      "requests/point=%d stall/miss=%.1fus "
      "(MCN_SERVICE_REQUESTS / MCN_SERVICE_STALL_US)\n",
      num_requests, stall_us);

  const int worker_sweep[] = {1, 2, 4, 8};
  double qps1_lsa = 0, qps4_lsa = 0, qps1_cea = 0, qps4_cea = 0;
  for (int workers : worker_sweep) {
    ServiceRun lsa = RunService(**instance, expand::EngineKind::kLsa,
                                workers, stall_us, env, locations);
    ServiceRun cea = RunService(**instance, expand::EngineKind::kCea,
                                workers, stall_us, env, locations);
    CheckParity("LSA", workers, ref_lsa, lsa);
    CheckParity("CEA", workers, ref_cea, cea);
    AlgoComparison c;
    c.lsa = lsa.metrics;
    c.cea = cea.metrics;
    // One "obs" object per row: both engines' service registries merged
    // (same instrument names, values add).
    obs::Snapshot row_obs = lsa.snapshot;
    row_obs.Merge(cea.snapshot);
    PrintRow(std::to_string(workers), c, row_obs);
    std::printf(
        "    service: LSA %7.2f qps  p50/p95/p99 %7.1f/%7.1f/%7.1f ms | "
        "CEA %7.2f qps  p50/p95/p99 %7.1f/%7.1f/%7.1f ms\n",
        lsa.metrics.qps, lsa.metrics.latency_p50_ms,
        lsa.metrics.latency_p95_ms, lsa.metrics.latency_p99_ms,
        cea.metrics.qps, cea.metrics.latency_p50_ms,
        cea.metrics.latency_p95_ms, cea.metrics.latency_p99_ms);
    if (workers == 1) {
      qps1_lsa = lsa.metrics.qps;
      qps1_cea = cea.metrics.qps;
    } else if (workers == 4) {
      qps4_lsa = lsa.metrics.qps;
      qps4_cea = cea.metrics.qps;
    }
  }
  PrintFooter();

  double speedup_lsa = qps1_lsa > 0 ? qps4_lsa / qps1_lsa : 0;
  double speedup_cea = qps1_cea > 0 ? qps4_cea / qps1_cea : 0;
  std::printf(
      "result hashes + per-query miss counts: identical to "
      "single-threaded execution at every worker count.\n");
  std::printf("QPS speedup at 4 workers vs 1: LSA %.2fx, CEA %.2fx\n",
              speedup_lsa, speedup_cea);
  if (min_speedup > 0 &&
      (speedup_lsa < min_speedup || speedup_cea < min_speedup)) {
    std::fprintf(stderr,
                 "FAILURE: 4-worker QPS speedup below %.2fx "
                 "(MCN_SERVICE_MIN_SPEEDUP)\n",
                 min_speedup);
    return 1;
  }

  // ---- Result-cache figure (DESIGN.md §13) ----
  const int cache_requests =
      static_cast<int>(EnvDouble("MCN_SERVICE_CACHE_REQUESTS", 192));
  const double cache_min_speedup =
      EnvDouble("MCN_SERVICE_CACHE_MIN_SPEEDUP", 2.0);
  MCN_CHECK(cache_requests > 0);
  const size_t num_distinct =
      std::min<size_t>(16, locations.size());
  std::vector<graph::Location> distinct(locations.begin(),
                                        locations.begin() + num_distinct);
  Reference ref_distinct;
  ref_distinct.hashes.assign(ref_cea.hashes.begin(),
                             ref_cea.hashes.begin() + num_distinct);

  // Zipf(1) popularity over the distinct queries: rank r drawn with
  // weight 1/(r+1) — the repeat-heavy stream result sharing exists for.
  std::vector<double> cumulative(num_distinct);
  double mass = 0;
  for (size_t r = 0; r < num_distinct; ++r) {
    mass += 1.0 / static_cast<double>(r + 1);
    cumulative[r] = mass;
  }
  Random zipf_rng(4051);
  std::vector<size_t> order;
  order.reserve(static_cast<size_t>(cache_requests));
  for (int i = 0; i < cache_requests; ++i) {
    const double u = zipf_rng.NextDouble() * mass;
    size_t rank = 0;
    while (rank + 1 < num_distinct && cumulative[rank] < u) ++rank;
    order.push_back(rank);
  }

  PrintHeader(
      "Service result cache: Zipf repeat QPS, off vs on (fig. 8(a) base)",
      "cache", scaled, env);
  std::printf(
      "replay=%d requests over %zu distinct queries, 4 workers "
      "(MCN_SERVICE_CACHE_REQUESTS)\n",
      cache_requests, num_distinct);
  ServiceRun off = RunCacheLeg(**instance, /*cache_entries=*/0, stall_us,
                               env, distinct, order, ref_distinct);
  AlgoComparison c_off;
  c_off.cea = off.metrics;
  SetNextRowMeta("serial", "memory");
  PrintRow("off", c_off, off.snapshot);
  ServiceRun on = RunCacheLeg(**instance, /*cache_entries=*/64, stall_us,
                              env, distinct, order, ref_distinct);
  exec::ServiceStats on_stats = exec::ServiceStatsFromSnapshot(on.snapshot);
  AlgoComparison c_on;
  c_on.cea = on.metrics;
  SetNextRowMeta("serial", "memory");
  PrintRow("on", c_on, on.snapshot);
  std::printf(
      "    cache: %" PRIu64 " hits, %" PRIu64 " misses, %" PRIu64
      " coalesced | CEA off %7.2f qps -> on %7.2f qps\n",
      on_stats.cache_hits, on_stats.cache_misses, on_stats.cache_coalesced,
      off.metrics.qps, on.metrics.qps);
  PrintFooter();

  const double cache_speedup =
      off.metrics.qps > 0 ? on.metrics.qps / off.metrics.qps : 0;
  std::printf(
      "every replayed response hash identical to single-threaded "
      "execution; cached QPS gain: %.2fx\n",
      cache_speedup);
  if (on_stats.cache_hits == 0) {
    std::fprintf(stderr, "FAILURE: cached leg served no hits\n");
    return 1;
  }
  if (cache_min_speedup > 0 && cache_speedup < cache_min_speedup) {
    std::fprintf(stderr,
                 "FAILURE: cached QPS gain %.2fx below %.2fx "
                 "(MCN_SERVICE_CACHE_MIN_SPEEDUP)\n",
                 cache_speedup, cache_min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mcn::bench

int main() { return mcn::bench::Main(); }
