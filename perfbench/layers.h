// Benchmark-side layer probes for the traced run (perfbench/README.md).
//
// The program is measured from outside: these classes call the public
// functions of the net / storage / index / expand / algo layers exactly as
// exec::QueryService does for a flat, serial (parallelism 0) request, and
// time the calls from here. Nothing inside the program is instrumented.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mcn/api/query_spec.h"
#include "mcn/common/result.h"
#include "mcn/net/landmark_index.h"
#include "mcn/net/network_builder.h"
#include "mcn/net/network_reader.h"
#include "mcn/storage/buffer_pool.h"
#include "mcn/storage/disk_manager.h"

namespace perfbench {

/// A flat NetworkReader that times every record access and forwards to
/// the base implementation (B+-tree probe + pool fetch + decode).
/// Confined to one thread, like any reader.
class TimingReader : public mcn::net::NetworkReader {
 public:
  TimingReader(const mcn::net::NetworkFiles& files,
               mcn::storage::BufferPool* pool)
      : NetworkReader(files, pool) {}

  mcn::Status GetAdjacency(mcn::graph::NodeId node,
                           std::vector<mcn::net::AdjEntry>* out)
      const override;
  mcn::Status GetFacilities(mcn::graph::EdgeKey edge,
                            const mcn::net::FacRef& ref,
                            std::vector<mcn::net::FacilityOnEdge>* out)
      const override;
  mcn::Result<mcn::graph::EdgeKey> LocateFacilityEdge(
      mcn::graph::FacilityId fac) const override;

  double seconds() const { return seconds_; }
  uint64_t calls() const { return calls_; }

 private:
  mutable double seconds_ = 0;
  mutable uint64_t calls_ = 0;
};

/// What one processor call cost, split by layer.
struct OpCost {
  uint64_t result_hash = 0;
  uint64_t buffer_misses = 0;     ///< main pool + landmark pool
  double processor_seconds = 0;   ///< engine build + query, reader included
  double reader_seconds = 0;      ///< inside TimingReader
  uint64_t reader_calls = 0;
  uint64_t nn_pops = 0;
  uint64_t dominance_checks = 0;  ///< skyline only
  uint64_t adjacency_requests = 0;
  uint64_t adjacency_fetches = 0;
};

/// Runs specs directly on a CeaEngine over a TimingReader, with the pool
/// budget and landmark oracle a service worker has. One-shot specs start
/// from cold pools (the service's per-query model); a session keeps its
/// pool warm across batches and never consults the index, like a service
/// session. One instance per thread.
class DirectProcessor {
 public:
  DirectProcessor(mcn::storage::DiskManager* disk,
                  const mcn::net::NetworkFiles& files, size_t pool_frames);

  /// A skyline or top-k spec, cold.
  mcn::Result<OpCost> RunOneShot(const mcn::api::QuerySpec& spec);

  /// An incremental spec as a session: `batches` NextBatch(n) calls on one
  /// engine; one OpCost per batch (the first carries engine seeding).
  mcn::Result<std::vector<OpCost>> RunSession(const mcn::api::QuerySpec& spec,
                                              int batches, int n);

 private:
  mcn::storage::DiskManager* disk_;
  mcn::net::NetworkFiles files_;
  size_t pool_frames_;
  mcn::storage::BufferPool pool_;
  TimingReader reader_;
  std::unique_ptr<mcn::net::LandmarkIndexReader> landmark_;  ///< may be null
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
