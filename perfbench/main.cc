// Client-seen benchmark program (perfbench/README.md).
//
//   perfbench --workload <uniform_oneshot|hot_repeat|session_paging>
//             --seed <n> --seconds <s> --trace <0|1>
//
// One process builds the fig. 8(a) base network (scale 0.15, 64
// landmarks), serves it through exec::QueryService behind api::Server on
// loopback, and replays a seed-generated spec list over kClients
// closed-loop api::Client connections. Every wire response is checked
// against an in-process reference, and a sample against the naive oracle.
// The work of a run is fixed by (workload, seed, seconds); --seconds sets
// the list length, not a deadline.
//
// --trace 0 prints the end-to-end metrics; --trace 1 repeats the same run
// and adds three benchmark-side passes (in-process, direct processor,
// codec) that time calls into each layer's public functions, and prints
// the per-layer metrics. The last stdout line is the result object.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "layers.h"
#include "mcn/algo/naive.h"
#include "mcn/algo/result_hash.h"
#include "mcn/api/client.h"
#include "mcn/api/server.h"
#include "mcn/api/wire.h"
#include "mcn/common/macros.h"
#include "mcn/common/stopwatch.h"
#include "mcn/exec/query_service.h"
#include "mcn/exec/service_stats.h"
#include "mcn/gen/workload.h"
#include "workload.h"

namespace perfbench {
namespace {

using mcn::Stopwatch;
using mcn::api::QueryKind;
using mcn::api::QueryResponse;
using mcn::api::QuerySpec;
using mcn::exec::QueryResult;
namespace mn = mcn::exec::metric_names;

// ------------------------------------------------------------ deployment

constexpr double kScale = 0.15;
constexpr uint32_t kLandmarks = 64;
constexpr int kWorkers = 2;
constexpr size_t kResultCacheEntries = 4096;
constexpr int kSetups = 3;  ///< setup_s is the median of this many
constexpr int kReps = 5;    ///< replays of the op list in the timed window
constexpr int kNaivePerKind = 32;
constexpr size_t kTracedOps = 2000;  ///< ops the traced passes replay
constexpr size_t kHotWarmHits = 40000;  ///< hot_repeat warm-up hits

/// Timed ops per second of --seconds (over all kReps replays), calibrated
/// on a 4-vCPU machine. uniform_oneshot's window lasts about --seconds:
/// its figures follow the host's speed, which drifts over tens of
/// seconds, so it gets the longest window. hot_repeat's (at about 60,000
/// hits/s) lasts about 2/5 of it: that already gives steady figures, and
/// 24 runs of each workload then take under an hour.
constexpr size_t kUniformOpsPerSecond = 500;
constexpr size_t kHotOpsPerSecond = 24000;
constexpr size_t kSessionsPerSecond = 4;

/// p99 over a list needs this many ops (10 beyond it).
constexpr size_t kMinTailSamples = 1000;
/// Sessions per list: p90 needs 100 batches, the oracle check 32 sessions.
constexpr size_t kMinSessions = 32;

/// Ops (or sessions) of one replay: --seconds worth of `per_second`, but
/// never fewer than `minimum`.
size_t ListSize(size_t per_second, size_t seconds, size_t minimum) {
  return std::max(minimum, per_second * seconds / kReps);
}

struct Args {
  Workload workload = Workload::kUniformOneShot;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return false;
    kv[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || kv.size() != 4) return false;
  const auto w = ParseWorkload(kv["workload"]);
  if (!w.has_value()) return false;
  args->workload = *w;
  char* end = nullptr;
  args->seed = std::strtoull(kv["seed"].c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  args->seconds = std::atoi(kv["seconds"].c_str());
  if (args->seconds < 1) return false;
  if (kv["trace"] != "0" && kv["trace"] != "1") return false;
  args->trace = kv["trace"] == "1";
  return true;
}

/// The served stack. Members are destroyed in reverse order; Stop and
/// Shutdown run first so no connection or worker outlives what it uses.
struct Deployment {
  std::unique_ptr<mcn::gen::Instance> instance;
  std::unique_ptr<mcn::exec::QueryService> service;
  std::unique_ptr<mcn::api::Server> server;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    if (server != nullptr) server->Stop();
    if (service != nullptr) service->Shutdown();
  }
  int port() const { return server->port(); }
  size_t pool_frames() const { return instance->pool->capacity(); }
};

mcn::gen::ExperimentConfig NetworkConfig() {
  mcn::gen::ExperimentConfig config = mcn::gen::ExperimentConfig{}.Scaled(
      kScale);
  config.landmarks = kLandmarks;
  return config;
}

/// Generate, build, index, serve: process work up to an accepting server.
std::unique_ptr<Deployment> Deploy() {
  auto d = std::make_unique<Deployment>();
  auto instance = mcn::gen::BuildInstance(NetworkConfig());
  MCN_CHECK(instance.ok());
  d->instance = std::move(instance).value();
  mcn::exec::ServiceOptions opts;
  opts.num_workers = kWorkers;
  opts.pool_frames_per_worker = d->pool_frames();
  opts.result_cache_entries = kResultCacheEntries;
  opts.enable_prune_index = true;
  auto service = mcn::exec::QueryService::Create(&d->instance->disk,
                                                 d->instance->files, opts);
  MCN_CHECK(service.ok());
  d->service = std::move(service).value();
  auto server = mcn::api::Server::Start(d->service.get(), {});
  MCN_CHECK(server.ok());
  d->server = std::move(server).value();
  return d;
}

// ------------------------------------------------------------ measuring

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Runs `body(c)` on kClients threads; they start together.
void RunClients(const std::function<void(int)>& body) {
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      body(c);
    });
  }
  for (std::thread& t : threads) t.join();
}

/// What the in-process service answered for one op.
struct Reference {
  QueryResponse response;  ///< rows, hash and logical I/O
  double latency_s = 0;    ///< Submit -> get() (or SessionNext -> get())
  double queue_s = 0;      ///< QueryStats.queue_seconds
};

Reference ToReference(QueryResult&& result, double latency_s) {
  MCN_CHECK(result.status.ok());
  Reference ref;
  ref.queue_s = result.stats.queue_seconds;
  ref.latency_s = latency_s;
  ref.response = std::move(result).ToResponse();
  return ref;
}

/// In-process pass over `specs`: kClients threads each Submit(...).get()
/// their static slice in order.
std::vector<Reference> InProcessOneShot(
    mcn::exec::QueryService& service,
    const std::vector<const QuerySpec*>& specs) {
  std::vector<Reference> refs(specs.size());
  RunClients([&](int c) {
    const Slice s = ClientSlice(specs.size(), kClients, c);
    for (size_t i = s.begin; i < s.end; ++i) {
      Stopwatch watch;
      QueryResult result = service.Submit(*specs[i]).get();
      refs[i] = ToReference(std::move(result), watch.ElapsedSeconds());
    }
  });
  return refs;
}

/// In-process session replay: per session, kSessionBatches references.
std::vector<std::vector<Reference>> InProcessSessions(
    mcn::exec::QueryService& service, const std::vector<QuerySpec>& specs) {
  std::vector<std::vector<Reference>> refs(specs.size());
  RunClients([&](int c) {
    const Slice s = ClientSlice(specs.size(), kClients, c);
    for (size_t i = s.begin; i < s.end; ++i) {
      auto id = service.OpenSession(specs[i]);
      MCN_CHECK(id.ok());
      for (int b = 0; b < kSessionBatches; ++b) {
        Stopwatch watch;
        QueryResult result = service.SessionNext(*id, kSessionBatchN).get();
        refs[i].push_back(
            ToReference(std::move(result), watch.ElapsedSeconds()));
      }
      MCN_CHECK(service.CloseSession(*id).ok());
    }
  });
  return refs;
}

/// One op of a wire pass, in list order.
struct WireOp {
  const QuerySpec* spec = nullptr;  ///< kExecute ops; the session spec
  const Reference* ref = nullptr;   ///< what the response must match
  bool expect_hit = false;          ///< served from the result cache
};

struct WireSample {
  double rtt_ms = 0;
  double exec_seconds = 0;  ///< carried in the response
  bool ok = false;
};

struct WirePass {
  std::vector<WireSample> samples;  ///< one per op, list order
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t failed = 0;
  uint64_t buffer_misses = 0;  ///< summed over responses
  mcn::obs::Snapshot before, after;
};

bool Matches(const QueryResponse& got, const WireOp& op) {
  if (op.ref == nullptr) return got.status.ok();  // warm-up: status only
  return got.status.ok() && got.result_hash == op.ref->response.result_hash &&
         got.buffer_misses ==
             (op.expect_hit ? 0 : op.ref->response.buffer_misses);
}

std::unique_ptr<mcn::api::Client> Connect(int port) {
  auto client = mcn::api::Client::Connect("127.0.0.1", port);
  MCN_CHECK(client.ok());
  return std::move(client).value();
}

/// Replays `ops` over kClients connections, each its static slice. Ops
/// of a session workload come in groups of kSessionBatches (one session).
/// The samples go into `samples`, whose storage is reused when it is
/// large enough.
WirePass RunWire(int port, const std::vector<WireOp>& ops, bool sessions,
                 std::vector<WireSample> samples = {}) {
  WirePass pass;
  pass.samples = std::move(samples);
  pass.samples.assign(ops.size(), WireSample{});
  std::vector<std::unique_ptr<mcn::api::Client>> clients;
  for (int c = 0; c < kClients; ++c) clients.push_back(Connect(port));
  auto control = Connect(port);
  auto snapshot = [&control]() {
    auto snap = control->GetMetrics();
    MCN_CHECK(snap.ok());
    return std::move(snap).value();
  };
  std::vector<uint64_t> failed(kClients, 0), misses(kClients, 0);
  const size_t unit = sessions ? kSessionBatches : 1;
  const size_t units = ops.size() / unit;

  pass.before = snapshot();
  const double cpu0 = CpuSeconds();
  Stopwatch wall;
  RunClients([&](int c) {
    mcn::api::Client& client = *clients[static_cast<size_t>(c)];
    const Slice s = ClientSlice(units, kClients, c);
    for (size_t u = s.begin; u < s.end; ++u) {
      auto record = [&](size_t i, const mcn::Result<QueryResponse>& got,
                        double rtt_ms) {
        WireSample& sample = pass.samples[i];
        sample.rtt_ms = rtt_ms;
        sample.ok = got.ok() && Matches(got.value(), ops[i]);
        if (got.ok()) {
          sample.exec_seconds = got.value().exec_seconds;
          misses[c] += got.value().buffer_misses;
        }
        if (!sample.ok) ++failed[c];
      };
      if (!sessions) {
        Stopwatch rtt;
        auto got = client.Execute(*ops[u].spec);
        record(u, got, rtt.ElapsedMillis());
        continue;
      }
      const size_t first = u * unit;
      auto id = client.OpenSession(*ops[first].spec);
      if (!id.ok()) {
        failed[c] += unit;
        continue;
      }
      bool session_ok = true;
      for (size_t b = 0; b < unit; ++b) {
        Stopwatch rtt;
        auto got = client.Next(*id, kSessionBatchN);
        record(first + b, got, rtt.ElapsedMillis());
        session_ok = session_ok && pass.samples[first + b].ok;
      }
      // A failed close fails the session's batches that had not failed.
      if (!client.CloseSession(*id).ok() && session_ok) failed[c] += unit;
    }
  });
  pass.wall_s = wall.ElapsedSeconds();
  pass.cpu_s = CpuSeconds() - cpu0;
  pass.after = snapshot();
  for (int c = 0; c < kClients; ++c) {
    pass.failed += failed[c];
    pass.buffer_misses += misses[c];
  }
  return pass;
}

/// A service counter's growth over the timed replays.
uint64_t CounterDelta(const std::vector<WirePass>& reps, const char* name) {
  uint64_t delta = 0;
  for (const WirePass& rep : reps) {
    delta += rep.after.CounterValue(name) - rep.before.CounterValue(name);
  }
  return delta;
}

// ------------------------------------------------------------ checking

/// The naive oracle's answer to one spec: the skyline facility set, or
/// the top-k scores in rank order.
struct NaiveAnswer {
  std::set<mcn::graph::FacilityId> skyline;
  std::vector<double> scores;
};

/// Full materialization + classic operators (algo/naive.h) over a private
/// reader whose pool holds the whole network. One instance per thread.
class NaiveOracle {
 public:
  explicit NaiveOracle(mcn::gen::Instance& instance)
      : pool_(&instance.disk, instance.files.total_pages + 16),
        reader_(instance.files, &pool_) {}

  NaiveAnswer Answer(const QuerySpec& spec, int k) {
    NaiveAnswer answer;
    if (spec.kind == QueryKind::kSkyline) {
      auto rows = mcn::algo::NaiveSkyline(reader_, spec.location);
      MCN_CHECK(rows.ok());
      for (const auto& e : rows.value()) answer.skyline.insert(e.facility);
    } else {
      auto rows = mcn::algo::NaiveTopK(
          reader_, spec.location,
          mcn::algo::WeightedSum(spec.preference.weights), k);
      MCN_CHECK(rows.ok());
      for (const auto& e : rows.value()) answer.scores.push_back(e.score);
    }
    return answer;
  }

 private:
  mcn::storage::BufferPool pool_;
  mcn::net::NetworkReader reader_;
};

/// Served skyline ids must equal the oracle's set; served top-k scores
/// must match rank by rank (to 1e-9: ties may order ids either way).
bool Agrees(const NaiveAnswer& want, QueryKind kind,
            const std::vector<mcn::algo::SkylineEntry>& skyline,
            const std::vector<mcn::algo::TopKEntry>& topk) {
  if (kind == QueryKind::kSkyline) {
    std::set<mcn::graph::FacilityId> have;
    for (const auto& e : skyline) have.insert(e.facility);
    return have == want.skyline;
  }
  if (topk.size() != want.scores.size()) return false;
  for (size_t r = 0; r < topk.size(); ++r) {
    const double w = want.scores[r];
    if (std::abs(w - topk[r].score) > 1e-9 * std::max(1.0, w)) return false;
  }
  return true;
}

// ------------------------------------------------------------ reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value);
    out += buf;
    out += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ------------------------------------------------------------ the run

int Run(const Args& args) {
  const bool sessions = args.workload == Workload::kSessionPaging;
  const bool hot = args.workload == Workload::kHotRepeat;
  const size_t unit_ops = sessions ? kSessionBatches : 1;  // ops per unit
  const auto seconds = static_cast<size_t>(args.seconds);

  Stopwatch phase_watch;
  auto phase = [&phase_watch](const char* name) {
    std::printf("phase %-10s %8.3f s\n", name, phase_watch.ElapsedSeconds());
    phase_watch.Restart();
  };

  // Set-up, several times; the last deployment serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();
    Stopwatch watch;
    d = Deploy();
    setup_s.push_back(watch.ElapsedSeconds());
  }
  mcn::exec::QueryService& service = *d->service;
  const mcn::graph::MultiCostGraph& graph = d->instance->graph;
  phase("setup");
  std::printf("network: %s, %u nodes, %u edges, |P|=%u, %zu frames/worker\n",
              NetworkConfig().ToString().c_str(), graph.num_nodes(),
              graph.num_edges(), d->instance->files.num_facilities,
              d->pool_frames());

  // Inputs, from the seed only.
  std::vector<QuerySpec> timed, warmup, hot_set;
  std::vector<uint32_t> stream;
  switch (args.workload) {
    case Workload::kUniformOneShot:
      timed = UniformOneShotSpecs(
          graph, DeriveSeed(args.seed, 1),
          ListSize(kUniformOpsPerSecond, seconds, kMinTailSamples));
      warmup = UniformOneShotSpecs(graph, DeriveSeed(args.seed, 2),
                                   timed.size() / 8);
      break;
    case Workload::kHotRepeat:
      hot_set = HotSetSpecs(graph, DeriveSeed(args.seed, 3));
      stream = ZipfDraws(DeriveSeed(args.seed, 4), kHotSpecs, kZipfS,
                         ListSize(kHotOpsPerSecond, seconds, kMinTailSamples));
      break;
    case Workload::kSessionPaging:
      timed = SessionSpecs(
          graph, DeriveSeed(args.seed, 5),
          ListSize(kSessionsPerSecond, seconds, kMinSessions));
      warmup = SessionSpecs(graph, DeriveSeed(args.seed, 6),
                            std::max<size_t>(2, timed.size() / 8));
      break;
  }
  MCN_CHECK(LocationsDisjoint(timed, warmup));
  // The timed replays' samples (35 MB for hot_repeat), taken now so the
  // window allocates nothing large: otherwise peak_rss_mb depends on
  // where the allocator finds room for them after the reference phase.
  std::vector<std::vector<WireSample>> rep_samples(kReps);
  for (std::vector<WireSample>& samples : rep_samples) {
    samples.resize(hot ? stream.size() : timed.size() * unit_ops);
  }

  // References, before any timing: every op's in-process answer. The
  // naive oracle answers the first kNaivePerKind specs of each kind on
  // two more threads meanwhile.
  const std::vector<QuerySpec>& executed = hot ? hot_set : timed;
  std::vector<size_t> naive_index;
  {
    int skylines = 0, others = 0;
    for (size_t i = 0; i < executed.size(); ++i) {
      int& count =
          executed[i].kind == QueryKind::kSkyline ? skylines : others;
      if (count < kNaivePerKind) {
        ++count;
        naive_index.push_back(i);
      }
    }
  }
  const int session_k = kSessionBatches * kSessionBatchN;
  std::vector<NaiveAnswer> naive(naive_index.size());
  std::vector<std::thread> naive_threads;
  for (int t = 0; t < 2; ++t) {
    naive_threads.emplace_back([&, t] {
      NaiveOracle oracle(*d->instance);
      const Slice s = ClientSlice(naive_index.size(), 2, t);
      for (size_t j = s.begin; j < s.end; ++j) {
        const QuerySpec& spec = executed[naive_index[j]];
        naive[j] = oracle.Answer(spec, sessions ? session_k : spec.k);
      }
    });
  }
  std::vector<Reference> refs;                    // one-shot specs
  std::vector<std::vector<Reference>> sess_refs;  // per session, per batch
  if (sessions) {
    sess_refs = InProcessSessions(service, timed);
  } else {
    std::vector<const QuerySpec*> specs;
    for (const QuerySpec& spec : executed) specs.push_back(&spec);
    refs = InProcessOneShot(service, specs);
  }
  for (std::thread& t : naive_threads) t.join();
  uint64_t naive_failed = 0;
  for (size_t j = 0; j < naive_index.size(); ++j) {
    const size_t i = naive_index[j];
    bool ok = false;
    if (sessions) {
      std::vector<mcn::algo::TopKEntry> rows;
      for (const Reference& r : sess_refs[i]) {
        rows.insert(rows.end(), r.response.topk.begin(),
                    r.response.topk.end());
      }
      ok = Agrees(naive[j], QueryKind::kTopK, {}, rows);
    } else {
      ok = Agrees(naive[j], executed[i].kind, refs[i].response.skyline,
                  refs[i].response.topk);
    }
    if (!ok) ++naive_failed;
  }
  const uint64_t naive_checked = naive_index.size();
  phase("reference");

  // Only the wire passes below may fill the result cache.
  service.BumpNetworkEpoch();

  // Untimed warm-up: hot_repeat preloads its whole hot set; the others
  // replay a disjoint list, checked for status only.
  std::vector<WireOp> warm_ops, ops;
  std::vector<WireOp> warm_hits;  // hot_repeat: warms the hit path itself
  if (hot) {
    for (size_t i = 0; i < hot_set.size(); ++i) {
      warm_ops.push_back({&hot_set[i], &refs[i], false});
    }
    for (uint32_t h : ZipfDraws(DeriveSeed(args.seed, 7), kHotSpecs, kZipfS,
                                kHotWarmHits)) {
      warm_hits.push_back({&hot_set[h], &refs[h], true});
    }
    for (uint32_t h : stream) ops.push_back({&hot_set[h], &refs[h], true});
  } else if (sessions) {
    for (const QuerySpec& spec : warmup) {
      for (int b = 0; b < kSessionBatches; ++b) {
        warm_ops.push_back({&spec, nullptr, false});
      }
    }
    for (size_t i = 0; i < timed.size(); ++i) {
      for (const Reference& r : sess_refs[i]) {
        ops.push_back({&timed[i], &r, false});
      }
    }
  } else {
    for (const QuerySpec& spec : warmup) {
      warm_ops.push_back({&spec, nullptr, false});
    }
    for (size_t i = 0; i < timed.size(); ++i) {
      ops.push_back({&timed[i], &refs[i], false});
    }
  }
  WirePass warm = RunWire(d->port(), warm_ops, sessions);
  if (!warm_hits.empty()) {
    warm.failed += RunWire(d->port(), warm_hits, sessions).failed;
  }
  phase("warm-up");
  // The timed window: kReps replays of the same list. Each op's RTT is
  // its median over the replays, throughput and CPU the median replay's,
  // so a slow stretch of the machine moves one replay, not the result.
  std::vector<WirePass> reps;
  for (int r = 0; r < kReps; ++r) {
    if (!hot) service.BumpNetworkEpoch();  // every replay executes anew
    reps.push_back(RunWire(d->port(), ops, sessions,
                           std::move(rep_samples[static_cast<size_t>(r)])));
  }
  phase("timed");

  const auto n_ops = static_cast<double>(ops.size());
  std::vector<double> rtts, sky_rtts, topk_rtts, qps, cpu_ms;
  uint64_t attempted = 0, wire_failed = 0, buffer_misses = 0;
  for (const WirePass& rep : reps) {
    qps.push_back(n_ops / rep.wall_s);
    cpu_ms.push_back(rep.cpu_s * 1e3 / n_ops);
    std::printf("replay %zu: %.6g ops/s, %.6g cpu ms/op\n", qps.size(),
                qps.back(), cpu_ms.back());
    attempted += ops.size();
    wire_failed += rep.failed;
    buffer_misses += rep.buffer_misses;
  }
  uint64_t combined_hash = mcn::algo::kFnvOffsetBasis;
  std::vector<double> per_rep(reps.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    for (size_t r = 0; r < reps.size(); ++r) {
      per_rep[r] = reps[r].samples[i].rtt_ms;
    }
    rtts.push_back(Median(per_rep));
    if (!sessions) {
      (ops[i].spec->kind == QueryKind::kSkyline ? sky_rtts : topk_rtts)
          .push_back(rtts.back());
    }
    combined_hash =
        mcn::algo::FnvMixU64(combined_hash, ops[i].ref->response.result_hash);
  }
  const double tail_pct = sessions ? 90 : 99;
  const std::optional<double> tail = TailPercentile(rtts, tail_pct);
  MCN_CHECK(tail.has_value());  // the list sizes guarantee >= 10 beyond
  const uint64_t failed = wire_failed + naive_failed;
  const uint64_t cache_hits = CounterDelta(reps, mn::kCacheHit);

  std::printf("checks: %" PRIu64 " naive-oracle specs (%" PRIu64
              " wrong), warm-up %zu ops (%" PRIu64 " wrong), timed %" PRIu64
              " ops (%" PRIu64 " wrong)\n",
              naive_checked, naive_failed, warm_ops.size() + warm_hits.size(),
              warm.failed,
              attempted, wire_failed);
  std::printf("counts: {\"ops\": %" PRIu64 ", \"buffer_misses\": %" PRIu64
              ", \"result_hash\": \"%016" PRIx64 "\", \"cache_hits\": %" PRIu64
              "}\n",
              attempted, buffer_misses, combined_hash, cache_hits);
  auto print_kind = [](const char* kind, const std::vector<double>& v,
                       double pct) {
    if (v.empty()) return;
    const std::optional<double> t = TailPercentile(v, pct);
    std::printf("  %-8s n=%zu p50=%.4f ms p%.0f=%s ms\n", kind, v.size(),
                Median(v), pct,
                t.has_value() ? std::to_string(*t).c_str() : "(too few)");
  };
  print_kind("skyline", sky_rtts, 99);
  print_kind("top-k", topk_rtts, 99);
  print_kind(sessions ? "batch" : "all", rtts, tail_pct);

  std::vector<Metric> e2e = {
      {"setup_s", Median(setup_s), "s"},
      {"qps", Median(qps), "1/s"},
      {"p50_ms", Median(rtts), "ms"},
      {"tail_ms", *tail, "ms"},
      {"cpu_ms_per_op", Median(cpu_ms), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  std::printf("error_rate: %.6g (%" PRIu64 " of %" PRIu64 ")\n",
              Ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              failed, attempted);
  const bool correct = failed == 0 && warm.failed == 0;
  if (!args.trace) {
    std::printf("%s\n", Json(correct, attempted, failed, e2e).c_str());
    return correct ? 0 : 1;
  }

  std::printf("traced run, end-to-end (compare with a --trace 0 run of the "
              "same seed for the tracing overhead):");
  for (const Metric& m : e2e) std::printf(" %s=%.6g", m.name.c_str(), m.value);
  std::printf("\n");

  // The in-process and direct passes cover the first kTracedOps ops.
  const size_t traced_n = std::min(ops.size(), kTracedOps);

  // ---- traced pass 1: in-process submits on the same service.
  std::vector<double> inproc_s(traced_n, 0), queue_ms, hit_us;
  if (sessions) {
    const std::vector<QuerySpec> traced_sessions(
        timed.begin(),
        timed.begin() + static_cast<std::ptrdiff_t>(traced_n / unit_ops));
    const auto replay = InProcessSessions(service, traced_sessions);
    for (size_t i = 0, op = 0; i < replay.size(); ++i) {
      for (const Reference& r : replay[i]) {
        inproc_s[op++] = r.latency_s;
        queue_ms.push_back(r.queue_s * 1e3);
      }
    }
  } else {
    std::vector<const QuerySpec*> op_specs;
    for (size_t i = 0; i < traced_n; ++i) op_specs.push_back(ops[i].spec);
    if (!hot) service.BumpNetworkEpoch();  // execute, as the wire pass did
    const std::vector<Reference> served = InProcessOneShot(service, op_specs);
    for (size_t i = 0; i < served.size(); ++i) {
      inproc_s[i] = served[i].latency_s;
      queue_ms.push_back(served[i].queue_s * 1e3);
    }
    // Now every spec is cached: the in-process hit path.
    const std::vector<Reference> hits = InProcessOneShot(service, op_specs);
    for (const Reference& r : hits) hit_us.push_back(r.latency_s * 1e6);
  }
  std::vector<double> hop_ms;
  for (size_t i = 0; i < traced_n; ++i) {
    hop_ms.push_back(rtts[i] - inproc_s[i] * 1e3);
  }

  phase("in-process");

  // ---- traced pass 2: the processors directly, over a timing reader.
  struct KindTotals {
    uint64_t ops = 0;
    double self_s = 0;
  };
  KindTotals sky, topk, inc;
  OpCost sum;
  uint64_t direct_ops = 0, direct_mismatch = 0;
  {
    std::vector<std::vector<std::pair<const Reference*, OpCost>>> per_client(
        kClients);
    const size_t units = sessions ? traced_n / unit_ops
                         : hot    ? executed.size()
                                  : traced_n;
    RunClients([&](int c) {
      DirectProcessor direct(&d->instance->disk, d->instance->files,
                             d->pool_frames());
      const Slice s = ClientSlice(units, kClients, c);
      for (size_t i = s.begin; i < s.end; ++i) {
        if (sessions) {
          auto costs =
              direct.RunSession(timed[i], kSessionBatches, kSessionBatchN);
          MCN_CHECK(costs.ok());
          for (int b = 0; b < kSessionBatches; ++b) {
            per_client[c].push_back(
                {&sess_refs[i][b], costs.value()[b]});
          }
        } else {
          auto cost = direct.RunOneShot(executed[i]);
          MCN_CHECK(cost.ok());
          per_client[c].push_back({&refs[i], cost.value()});
        }
      }
    });
    for (const auto& client : per_client) {
      for (const auto& [ref, cost] : client) {
        ++direct_ops;
        if (cost.result_hash != ref->response.result_hash ||
            cost.buffer_misses != ref->response.buffer_misses) {
          ++direct_mismatch;
        }
        KindTotals& k = sessions ? inc
                        : ref->response.kind == QueryKind::kSkyline ? sky
                                                                     : topk;
        ++k.ops;
        k.self_s += cost.processor_seconds - cost.reader_seconds;
        sum.reader_seconds += cost.reader_seconds;
        sum.reader_calls += cost.reader_calls;
        sum.nn_pops += cost.nn_pops;
        sum.dominance_checks += cost.dominance_checks;
        sum.adjacency_requests += cost.adjacency_requests;
        sum.adjacency_fetches += cost.adjacency_fetches;
      }
    }
  }
  std::printf("direct-processor pass: %" PRIu64 " ops, %" PRIu64
              " differ from the served hash or buffer misses\n",
              direct_ops, direct_mismatch);

  phase("direct");

  // ---- traced pass 3: each op's own frames through the codec.
  double codec_s = 0, response_bytes = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    mcn::api::WireRequest request;
    if (sessions) {
      request.type = mcn::api::MsgType::kNext;
      request.session_id = i / kSessionBatches + 1;
      request.batch_n = kSessionBatchN;
    } else {
      request.spec = *ops[i].spec;
    }
    mcn::api::WireResponse response;
    response.response = ops[i].ref->response;
    Stopwatch watch;
    const std::string req = mcn::api::EncodeRequestFrame(request);
    auto req_back = mcn::api::DecodeRequestPayload(req.substr(4));
    const std::string resp = mcn::api::EncodeResponseFrame(response);
    auto resp_back = mcn::api::DecodeResponsePayload(resp.substr(4));
    codec_s += watch.ElapsedSeconds();
    MCN_CHECK(req_back.ok() && resp_back.ok());
    response_bytes += static_cast<double>(resp.size());
  }

  phase("codec");

  const auto n = static_cast<double>(attempted);
  const double dn = static_cast<double>(direct_ops);
  const double checked =
      static_cast<double>(CounterDelta(reps, mn::kPruneChecked));
  const double misses =
      static_cast<double>(CounterDelta(reps, mn::kBufferMisses));
  const double accesses =
      static_cast<double>(CounterDelta(reps, mn::kBufferAccesses));
  const double lookups = static_cast<double>(
      CounterDelta(reps, mn::kCacheHit) + CounterDelta(reps, mn::kCacheMiss) +
      CounterDelta(reps, mn::kCacheCoalesced));
  std::vector<double> batch_exec_ms;
  if (sessions) {
    for (const WirePass& rep : reps) {
      for (const WireSample& s : rep.samples) {
        batch_exec_ms.push_back(s.exec_seconds * 1e3);
      }
    }
  }
  auto self_ms = [](const KindTotals& k) {
    return Ratio(k.self_s * 1e3, static_cast<double>(k.ops));
  };
  std::vector<Metric> layers = {
      {"api.codec_us_per_op", codec_s * 1e6 / n_ops, "us"},
      {"api.response_bytes_per_op", response_bytes / n_ops, "bytes"},
      {"api.hop_ms_p50", Median(hop_ms), "ms"},
      {"exec.queue_ms_p50", Median(queue_ms), "ms"},
      {"exec.hit_us_p50", Median(hit_us), "us"},
      {"exec.cache_hit_ratio", Ratio(static_cast<double>(cache_hits), lookups),
       "ratio"},
      {"algo.skyline_self_ms_per_op", self_ms(sky), "ms"},
      {"algo.topk_self_ms_per_op", self_ms(topk), "ms"},
      {"algo.dominance_checks_per_op",
       Ratio(static_cast<double>(sum.dominance_checks), dn), "count"},
      {"algo.nn_pops_per_op", Ratio(static_cast<double>(sum.nn_pops), dn),
       "count"},
      {"expand.adjacency_requests_per_op",
       Ratio(static_cast<double>(sum.adjacency_requests), dn), "count"},
      {"expand.adjacency_fetches_per_op",
       Ratio(static_cast<double>(sum.adjacency_fetches), dn), "count"},
      {"net.reader_ms_per_op", Ratio(sum.reader_seconds * 1e3, dn), "ms"},
      {"net.reader_calls_per_op",
       Ratio(static_cast<double>(sum.reader_calls), dn), "count"},
      {"index.prune_checked_per_op", checked / n, "count"},
      {"index.prune_cut_ratio",
       Ratio(static_cast<double>(CounterDelta(reps, mn::kPruneCut)), checked),
       "ratio"},
      {"storage.buffer_misses_per_op", misses / n, "count"},
      {"storage.buffer_hit_ratio",
       accesses > 0 ? 1.0 - misses / accesses : 0, "ratio"},
      {"storage.page_reads_per_op",
       static_cast<double>(CounterDelta(reps, mn::kDiskPageReads)) / n,
       "count"},
  };
  if (sessions) {
    // The session path's own layers; the one-shot workloads never run it.
    layers.push_back({"exec.batch_exec_ms_p50", Median(batch_exec_ms), "ms"});
    layers.push_back(
        {"algo.incremental_self_ms_per_batch", self_ms(inc), "ms"});
  }
  const bool traced_correct = correct && direct_mismatch == 0;
  std::printf("%s\n", Json(traced_correct, attempted,
                           failed + direct_mismatch, layers)
                          .c_str());
  return traced_correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <uniform_oneshot|hot_repeat|"
                 "session_paging> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  return perfbench::Run(args);
}
