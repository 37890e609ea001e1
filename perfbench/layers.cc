#include "layers.h"

#include <chrono>
#include <utility>

#include "mcn/algo/common.h"
#include "mcn/algo/incremental_topk.h"
#include "mcn/algo/result_hash.h"
#include "mcn/algo/skyline_query.h"
#include "mcn/algo/topk_query.h"
#include "mcn/common/macros.h"
#include "mcn/common/stopwatch.h"
#include "mcn/expand/engines.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

mcn::Status TimingReader::GetAdjacency(
    mcn::graph::NodeId node, std::vector<mcn::net::AdjEntry>* out) const {
  const Clock::time_point start = Clock::now();
  mcn::Status status = NetworkReader::GetAdjacency(node, out);
  seconds_ += Since(start);
  ++calls_;
  return status;
}

mcn::Status TimingReader::GetFacilities(
    mcn::graph::EdgeKey edge, const mcn::net::FacRef& ref,
    std::vector<mcn::net::FacilityOnEdge>* out) const {
  const Clock::time_point start = Clock::now();
  mcn::Status status = NetworkReader::GetFacilities(edge, ref, out);
  seconds_ += Since(start);
  ++calls_;
  return status;
}

mcn::Result<mcn::graph::EdgeKey> TimingReader::LocateFacilityEdge(
    mcn::graph::FacilityId fac) const {
  const Clock::time_point start = Clock::now();
  mcn::Result<mcn::graph::EdgeKey> edge =
      NetworkReader::LocateFacilityEdge(fac);
  seconds_ += Since(start);
  ++calls_;
  return edge;
}

DirectProcessor::DirectProcessor(mcn::storage::DiskManager* disk,
                                 const mcn::net::NetworkFiles& files,
                                 size_t pool_frames)
    : disk_(disk),
      files_(files),
      pool_frames_(pool_frames),
      pool_(disk, pool_frames),
      reader_(files, &pool_) {
  if (files.landmark.present()) {
    // The oracle a service worker installs: same files, same index pool.
    landmark_ = std::make_unique<mcn::net::LandmarkIndexReader>(
        disk, files.landmark);
    MCN_CHECK(landmark_->Validate().ok());
  }
}

mcn::Result<OpCost> DirectProcessor::RunOneShot(
    const mcn::api::QuerySpec& spec) {
  MCN_CHECK(spec.kind != mcn::api::QueryKind::kIncrementalTopK);
  reader_.ResetIoState();
  if (landmark_ != nullptr) landmark_->ResetIoState();
  const double reader_before = reader_.seconds();
  const uint64_t calls_before = reader_.calls();

  OpCost cost;
  mcn::Stopwatch watch;
  auto engine = mcn::expand::CeaEngine::Create(&reader_, spec.location);
  if (!engine.ok()) return engine.status();
  if (spec.kind == mcn::api::QueryKind::kSkyline) {
    mcn::algo::SkylineOptions options;
    options.exec.landmark_index = landmark_.get();
    mcn::algo::SkylineQuery query(engine.value().get(), options);
    auto rows = query.ComputeAll();
    if (!rows.ok()) return rows.status();
    cost.processor_seconds = watch.ElapsedSeconds();
    cost.result_hash = mcn::algo::HashResult(rows.value());
    cost.nn_pops = query.stats().nn_pops;
    cost.dominance_checks = query.stats().dominance_checks;
  } else {
    mcn::algo::TopKOptions options;
    options.k = spec.k;
    mcn::algo::TopKQuery query(engine.value().get(),
                               mcn::algo::WeightedSum(spec.preference.weights),
                               options);
    auto rows = query.Run();
    if (!rows.ok()) return rows.status();
    cost.processor_seconds = watch.ElapsedSeconds();
    cost.result_hash = mcn::algo::HashResult(rows.value());
    cost.nn_pops = query.stats().nn_pops;
  }
  cost.reader_seconds = reader_.seconds() - reader_before;
  cost.reader_calls = reader_.calls() - calls_before;
  cost.buffer_misses = pool_.stats().misses;
  if (landmark_ != nullptr) {
    cost.buffer_misses += landmark_->pool().stats().misses;
  }
  const mcn::expand::FetchProvider::Stats& fetch =
      engine.value()->fetch().stats();
  cost.adjacency_requests = fetch.adjacency_requests;
  cost.adjacency_fetches = fetch.adjacency_fetches;
  return cost;
}

mcn::Result<std::vector<OpCost>> DirectProcessor::RunSession(
    const mcn::api::QuerySpec& spec, int batches, int n) {
  MCN_CHECK(spec.kind == mcn::api::QueryKind::kIncrementalTopK);
  // A session's private, warm pool (the service builds one per session).
  mcn::storage::BufferPool pool(disk_, pool_frames_);
  TimingReader reader(files_, &pool);
  std::unique_ptr<mcn::expand::CeaEngine> engine;
  std::unique_ptr<mcn::algo::IncrementalTopK> query;
  std::vector<OpCost> costs;
  mcn::expand::FetchProvider::Stats fetch_before;
  uint64_t pops_before = 0;
  for (int b = 0; b < batches; ++b) {
    OpCost cost;
    const uint64_t misses_before = pool.stats().misses;
    const double reader_before = reader.seconds();
    const uint64_t calls_before = reader.calls();
    mcn::Stopwatch watch;
    if (engine == nullptr) {
      // Engine seeding is charged to the first batch, as in the service.
      auto created = mcn::expand::CeaEngine::Create(&reader, spec.location);
      if (!created.ok()) return created.status();
      engine = std::move(created).value();
      query = std::make_unique<mcn::algo::IncrementalTopK>(
          engine.get(), mcn::algo::WeightedSum(spec.preference.weights));
    }
    auto rows = query->NextBatch(n);
    if (!rows.ok()) return rows.status();
    cost.processor_seconds = watch.ElapsedSeconds();
    cost.result_hash = mcn::algo::HashResult(rows.value());
    cost.buffer_misses = pool.stats().misses - misses_before;
    cost.reader_seconds = reader.seconds() - reader_before;
    cost.reader_calls = reader.calls() - calls_before;
    cost.nn_pops = query->stats().nn_pops - pops_before;
    pops_before = query->stats().nn_pops;
    const mcn::expand::FetchProvider::Stats& fetch = engine->fetch().stats();
    cost.adjacency_requests =
        fetch.adjacency_requests - fetch_before.adjacency_requests;
    cost.adjacency_fetches =
        fetch.adjacency_fetches - fetch_before.adjacency_fetches;
    fetch_before = fetch;
    costs.push_back(cost);
  }
  return costs;
}

}  // namespace perfbench
