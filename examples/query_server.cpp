// query_server: the preference-query service end to end (DESIGN.md §6,
// §8, §9) — now an actual TCP server speaking the api/wire protocol.
//
// Builds a mid-sized instance, stands up an exec::QueryService (one
// worker pool; each query bound to its home shard), and binds an
// api::Server on 127.0.0.1. Two modes:
//
//   demo (default)   an in-process api::Client connects through the real
//                    socket and drives a mixed workload — skyline, top-k
//                    and incremental requests with per-request weights, a
//                    constrained (cost-capped) skyline, and a streamed
//                    incremental session pulled batch by batch. Prints a
//                    few representative results plus the service stats
//                    and per-shard table, then exits.
//   --serve          stays in the foreground serving the wire protocol
//                    until stdin closes (pipe or Ctrl-D) — point any
//                    api::Client at the printed port.
//
// Flags:
//   --port=P         TCP port (default 0 = ephemeral; printed on start).
//   --serve          foreground server mode (see above).
//   --shards=K       serve from a K-way sharded layout (grid-tile
//                    partition, routed record fetches). Default 1.
//   --workers=N      service workers (default 4).
//   --deadline-ms=D  per-request deadline stamped into every demo spec
//                    (0 = none). Expired queries resolve DeadlineExceeded.
//   --max-inflight=M service-wide admission cap; requests over the cap
//                    are load-shed with ResourceExhausted (0 = unbounded).
//   --inject-faults=SPEC
//                    install a deterministic fault injector, e.g.
//                    "seed=7,disk_eio=0.01,recv_delay=0.05" (see
//                    common/fault_injector.h for the key set).
//
// Observability flags (DESIGN.md §11; see examples/PROFILING.md for a
// profiling walkthrough):
//   --metrics-port=P bind a second wire endpoint on port P dedicated to
//                    introspection scrapes (kGetMetrics/kGetTrace) — point
//                    tools/mcn_stat.py at it without contending with query
//                    traffic. The main port answers them too.
//   --trace-out=PATH enable the query tracer at startup and write the
//                    merged Chrome trace_event JSON to PATH on shutdown
//                    (load in https://ui.perfetto.dev).
//   --slow-query-ms=T
//                    attach a flight recorder and log every query slower
//                    than T ms as one JSON line (with a replay_hex frame
//                    for tools/replay_query.py). 0 = record digests only.
//   --slow-query-log=PATH
//                    append slow-query lines to PATH instead of stderr.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "mcn/api/client.h"
#include "mcn/api/server.h"
#include "mcn/common/fault_injector.h"
#include "mcn/common/random.h"
#include "mcn/exec/query_service.h"
#include "mcn/gen/workload.h"
#include "mcn/obs/flight_recorder.h"
#include "mcn/obs/trace.h"

using mcn::Random;
using mcn::api::QueryKind;
using mcn::api::QueryKindName;
using mcn::api::QueryResponse;
using mcn::api::QuerySpec;
using mcn::exec::QueryService;
using mcn::exec::ServiceOptions;
using mcn::exec::ServiceStats;

namespace {

struct Flags {
  int port = 0;
  bool serve = false;
  int shards = 1;
  int workers = 4;
  int deadline_ms = 0;
  int max_inflight = 0;
  std::string inject_faults;
  int metrics_port = -1;  ///< -1 = no dedicated introspection endpoint
  std::string trace_out;
  int slow_query_ms = -1;  ///< -1 = no flight recorder
  std::string slow_query_log;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--port=", 7) == 0) {
      flags->port = std::atoi(arg + 7);
      if (flags->port < 0 || flags->port > 65535) return false;
    } else if (std::strcmp(arg, "--serve") == 0) {
      flags->serve = true;
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      flags->shards = std::atoi(arg + 9);
      if (flags->shards < 1) return false;
    } else if (std::strncmp(arg, "--workers=", 10) == 0) {
      flags->workers = std::atoi(arg + 10);
      if (flags->workers < 1) return false;
    } else if (std::strncmp(arg, "--deadline-ms=", 14) == 0) {
      flags->deadline_ms = std::atoi(arg + 14);
      if (flags->deadline_ms < 0) return false;
    } else if (std::strncmp(arg, "--max-inflight=", 15) == 0) {
      flags->max_inflight = std::atoi(arg + 15);
      if (flags->max_inflight < 0) return false;
    } else if (std::strncmp(arg, "--inject-faults=", 16) == 0) {
      flags->inject_faults = arg + 16;
    } else if (std::strncmp(arg, "--metrics-port=", 15) == 0) {
      flags->metrics_port = std::atoi(arg + 15);
      if (flags->metrics_port < 0 || flags->metrics_port > 65535) {
        return false;
      }
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      flags->trace_out = arg + 12;
    } else if (std::strncmp(arg, "--slow-query-ms=", 16) == 0) {
      flags->slow_query_ms = std::atoi(arg + 16);
      if (flags->slow_query_ms < 0) return false;
    } else if (std::strncmp(arg, "--slow-query-log=", 17) == 0) {
      flags->slow_query_log = arg + 17;
    } else {
      return false;
    }
  }
  return true;
}

void PrintResponse(int i, const QueryResponse& r) {
  std::printf("query %2d  %-11s rows=%-3zu  server exec=%6.2fms  "
              "misses=%" PRIu64 "\n",
              i, QueryKindName(r.kind), r.num_rows(), r.exec_seconds * 1e3,
              r.buffer_misses);
  if (r.kind == QueryKind::kSkyline) {
    for (size_t j = 0; j < r.skyline.size() && j < 3; ++j) {
      std::printf("          facility %u, costs %s\n", r.skyline[j].facility,
                  r.skyline[j].costs.ToString().c_str());
    }
  } else {
    for (size_t j = 0; j < r.topk.size() && j < 3; ++j) {
      std::printf("          facility %u, score %.3f\n", r.topk[j].facility,
                  r.topk[j].score);
    }
  }
}

/// True for the failure-model statuses the robustness flags provoke on
/// purpose — counted, not fatal to the demo.
bool IsRobustnessStatus(const mcn::Status& s) {
  return s.code() == mcn::StatusCode::kDeadlineExceeded ||
         s.code() == mcn::StatusCode::kResourceExhausted ||
         s.code() == mcn::StatusCode::kCancelled ||
         s.code() == mcn::StatusCode::kIOError;
}

int RunDemo(QueryService& service, int port, int deadline_ms,
            const mcn::gen::ShardedInstance& instance) {
  auto client = mcn::api::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    std::fprintf(stderr, "client connect failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  std::printf("client connected over the wire protocol (v%d)\n\n",
              mcn::api::kWireVersion);

  // A mixed workload: every third query is a skyline, the rest are
  // (incremental) top-k with random preference weights, as a fleet of
  // heterogeneous clients would issue them — all through the socket.
  constexpr int kRequests = 60;
  Random rng(42);
  const int d = instance.graph.num_costs();
  uint64_t shed = 0;
  for (int i = 0; i < kRequests; ++i) {
    QuerySpec spec;
    const auto loc = instance.RandomQueryLocation(rng);
    std::vector<double> weights(d);
    for (double& w : weights) w = rng.NextDouble();
    switch (i % 3) {
      case 0:
        spec = mcn::api::SkylineSpec(loc);
        break;
      case 1:
        spec = mcn::api::TopKSpec(loc, 5, std::move(weights));
        break;
      case 2:
        spec = mcn::api::IncrementalSpec(loc, 3, std::move(weights));
        break;
    }
    spec.deadline_ms = deadline_ms;
    auto response = (*client)->Execute(spec);
    const mcn::Status status =
        response.ok() ? response.value().status : response.status();
    if (!status.ok()) {
      // Under --deadline-ms / --max-inflight / --inject-faults these are
      // the intended outcomes — count them and keep driving load.
      if (IsRobustnessStatus(status)) {
        ++shed;
        continue;
      }
      std::fprintf(stderr, "query %d failed: %s\n", i,
                   status.ToString().c_str());
      return 1;
    }
    if (i < 6) PrintResponse(i, response.value());
  }
  if (shed > 0) {
    std::printf("%" PRIu64 " of %d requests shed/timed out "
                "(client retries: %" PRIu64 ")\n",
                shed, kRequests, (*client)->retries());
  }

  // A constrained skyline: cost caps ride the spec and are applied
  // server-side as a post-dominance filter.
  {
    QuerySpec spec = mcn::api::SkylineSpec(instance.RandomQueryLocation(rng));
    spec.preference.constraints.cost_caps.assign(d, 1e4);
    spec.deadline_ms = deadline_ms;
    auto response = (*client)->Execute(spec);
    const mcn::Status status =
        response.ok() ? response.value().status : response.status();
    if (!status.ok()) {
      if (!IsRobustnessStatus(status)) {
        std::fprintf(stderr, "constrained skyline failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      std::printf("\nconstrained skyline shed: %s\n",
                  status.ToString().c_str());
    } else {
      std::printf("\nconstrained skyline (caps 1e4 on every dimension): "
                  "%zu rows\n",
                  response.value().num_rows());
    }
  }

  // A streamed incremental session: the engine stays pinned server-side;
  // each Next pulls a further ranked batch over the same expansion state.
  {
    std::vector<double> weights(d, 1.0);
    QuerySpec spec = mcn::api::IncrementalSpec(
        instance.RandomQueryLocation(rng), 4, weights);
    auto session = (*client)->OpenSession(spec);
    if (!session.ok()) {
      if (!IsRobustnessStatus(session.status())) {
        std::fprintf(stderr, "open session failed: %s\n",
                     session.status().ToString().c_str());
        return 1;
      }
      std::printf("\nstreaming session shed: %s\n",
                  session.status().ToString().c_str());
    } else {
      std::printf("\nstreaming session %" PRIu64 " (batches of 4):\n",
                  *session);
      int rank = 1;
      for (int batch = 0; batch < 3; ++batch) {
        auto response = (*client)->Next(*session, 4);
        const mcn::Status status =
            response.ok() ? response.value().status : response.status();
        if (!status.ok()) {
          // Sessions are never retried (DESIGN.md §10): a shed or
          // timed-out batch ends the stream for this demo.
          if (!IsRobustnessStatus(status)) {
            std::fprintf(stderr, "session next failed: %s\n",
                         status.ToString().c_str());
            return 1;
          }
          std::printf("  (batch shed: %s)\n", status.ToString().c_str());
          break;
        }
        for (const auto& row : response.value().topk) {
          std::printf("  #%-2d facility %u, score %.3f\n", rank++,
                      row.facility, row.score);
        }
        if (response.value().exhausted) {
          std::printf("  (component exhausted)\n");
          break;
        }
      }
      if ((*client)->connected()) (void)(*client)->CloseSession(*session);
    }
  }

  ServiceStats stats = service.Snapshot();
  std::printf(
      "\nservice stats: %llu completed, %llu failed, %llu session batches\n"
      "  failure model       = %llu rejected (load shed), %llu timed out, "
      "%llu cancelled\n"
      "  latency p50/p95/p99 = %.2f / %.2f / %.2f ms\n"
      "  throughput          = %.1f qps (wall %.2fs)\n"
      "  buffer misses       = %llu (%.1f per query)\n",
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.session_batches),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.timed_out),
      static_cast<unsigned long long>(stats.cancelled),
      stats.latency_p50_ms, stats.latency_p95_ms, stats.latency_p99_ms,
      stats.qps, stats.wall_seconds,
      static_cast<unsigned long long>(stats.buffer_misses),
      static_cast<double>(stats.buffer_misses) /
          static_cast<double>(stats.completed ? stats.completed : 1));

  // Per-shard table, keyed by each query's home shard: what completed
  // there, and how often expansions escaped the tile (the §8 remote-fetch
  // accounting).
  std::printf(
      "\n  shard | completed | misses   | local    | remote   | remote%%\n"
      "  ------+-----------+----------+----------+----------+--------\n");
  for (const auto& row : stats.per_shard) {
    std::printf("  %5d | %9" PRIu64 " | %8" PRIu64 " | %8" PRIu64
                " | %8" PRIu64 " | %6.1f%%\n",
                row.shard, row.completed, row.buffer_misses,
                row.local_fetches, row.remote_fetches,
                100.0 * row.RemoteRatio());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: %s [--port=P] [--serve] [--shards=K] [--workers=N] "
                 "[--deadline-ms=D] [--max-inflight=M] "
                 "[--inject-faults=SPEC] [--metrics-port=P] "
                 "[--trace-out=PATH] [--slow-query-ms=T] "
                 "[--slow-query-log=PATH]\n",
                 argv[0]);
    return 2;
  }

  // The injector must outlive all I/O; install it before any query
  // touches storage and leave it for the process lifetime.
  std::unique_ptr<mcn::FaultInjector> injector;
  if (!flags.inject_faults.empty()) {
    auto fault_options = mcn::FaultInjector::ParseSpec(flags.inject_faults);
    if (!fault_options.ok()) {
      std::fprintf(stderr, "--inject-faults: %s\n",
                   fault_options.status().ToString().c_str());
      return 2;
    }
    injector = std::make_unique<mcn::FaultInjector>(fault_options.value());
    mcn::FaultInjector::Install(injector.get());
    std::printf("fault injector installed: %s\n",
                flags.inject_faults.c_str());
  }

  // A small-city instance: ~9k nodes, 4 cost types, clustered facilities.
  mcn::gen::ExperimentConfig config;
  config = config.Scaled(0.05);
  std::printf("building instance: %s (%d shard%s)\n",
              config.ToString().c_str(), flags.shards,
              flags.shards == 1 ? "" : "s");
  auto instance = mcn::gen::BuildShardedInstance(config, flags.shards);
  if (!instance.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 instance.status().ToString().c_str());
    return 1;
  }
  std::printf("layout: %u nodes, %u boundary edges across %d shard(s)\n",
              (*instance)->files.num_nodes,
              (*instance)->files.num_boundary_edges,
              (*instance)->files.num_shards());

  // Observability wiring (DESIGN.md §11): tracer on when a trace sink is
  // named; a flight recorder when a slow-query threshold is set.
  if (!flags.trace_out.empty()) {
    mcn::obs::Tracer::Global().Enable();
    std::printf("tracing enabled: Chrome JSON -> %s on shutdown\n",
                flags.trace_out.c_str());
  }
  std::unique_ptr<mcn::obs::FlightRecorder> flight_recorder;
  if (flags.slow_query_ms >= 0) {
    mcn::obs::FlightRecorder::Options recorder_options;
    recorder_options.slow_query_ms =
        static_cast<double>(flags.slow_query_ms);
    recorder_options.log_path = flags.slow_query_log;
    flight_recorder =
        std::make_unique<mcn::obs::FlightRecorder>(recorder_options);
    std::printf("flight recorder on: slow-query threshold %dms -> %s\n",
                flags.slow_query_ms,
                flags.slow_query_log.empty() ? "stderr"
                                             : flags.slow_query_log.c_str());
  }

  ServiceOptions options;
  options.num_workers = flags.workers;
  options.queue_capacity = 256;
  options.pool_frames_per_worker = (*instance)->pool_frames;
  options.io_latency_ms = 5.0;  // accounted, not slept, in this demo
  options.max_inflight = static_cast<size_t>(flags.max_inflight);
  options.flight_recorder = flight_recorder.get();
  auto service = QueryService::Create(&(*instance)->storage,
                                      (*instance)->files, options);
  if (!service.ok()) {
    std::fprintf(stderr, "service failed: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }

  mcn::api::Server::Options server_options;
  server_options.port = flags.port;
  auto server = mcn::api::Server::Start((*service).get(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "server failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "serving the wire protocol on 127.0.0.1:%d — %d workers, %zu-frame "
      "pool budget each\n",
      (*server)->port(), (*service)->num_workers(),
      options.pool_frames_per_worker);

  // Optional dedicated introspection endpoint: a second wire server over
  // the same service, so ops scrapes never queue behind query traffic.
  std::unique_ptr<mcn::api::Server> metrics_server;
  if (flags.metrics_port >= 0) {
    mcn::api::Server::Options metrics_options;
    metrics_options.port = flags.metrics_port;
    auto started =
        mcn::api::Server::Start((*service).get(), metrics_options);
    if (!started.ok()) {
      std::fprintf(stderr, "metrics server failed: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    metrics_server = std::move(started).value();
    std::printf(
        "introspection endpoint on 127.0.0.1:%d — scrape with "
        "tools/mcn_stat.py --port %d\n",
        metrics_server->port(), metrics_server->port());
  }

  int rc = 0;
  if (flags.serve) {
    std::printf("--serve: accepting connections until stdin closes...\n");
    std::fflush(stdout);
    // Block on stdin; EOF (pipe closed, Ctrl-D) shuts the server down.
    int c;
    while ((c = std::getchar()) != EOF) {
    }
    std::printf("stdin closed: shutting down (%" PRIu64 " connections "
                "served)\n",
                (*server)->connections_accepted());
  } else {
    rc = RunDemo(**service, (*server)->port(), flags.deadline_ms, **instance);
  }
  if (metrics_server != nullptr) metrics_server->Stop();
  (*server)->Stop();
  (*service)->Shutdown();
  if (!flags.trace_out.empty()) {
    const std::string json = mcn::obs::Tracer::Global().ExportChromeJson();
    std::FILE* f = std::fopen(flags.trace_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "--trace-out: cannot open %s\n",
                   flags.trace_out.c_str());
    } else {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("wrote %zu trace bytes to %s\n", json.size(),
                  flags.trace_out.c_str());
    }
  }
  if (flight_recorder != nullptr) {
    std::printf("flight recorder: %" PRIu64 " digests recorded, %" PRIu64
                " slow queries logged\n",
                flight_recorder->recorded(), flight_recorder->slow_logged());
  }
  {
    ServiceStats stats = (*service)->Snapshot();
    std::printf("exit stats: %" PRIu64 " completed, %" PRIu64 " failed, "
                "%" PRIu64 " rejected, %" PRIu64 " timed out, %" PRIu64
                " cancelled",
                stats.completed, stats.failed, stats.rejected,
                stats.timed_out, stats.cancelled);
    if (injector != nullptr) {
      std::printf(", %" PRIu64 " faults injected", injector->injected());
    }
    std::printf("\n");
  }
  mcn::FaultInjector::Install(nullptr);
  return rc;
}
