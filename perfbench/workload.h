// Workload generation and sample statistics for the client-seen benchmark
// (perfbench/README.md). Everything here is a pure function of its
// arguments: the same seed always yields the same spec lists, so two runs
// with one seed replay identical work and can be compared count for count.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "mcn/api/query_spec.h"
#include "mcn/graph/multi_cost_graph.h"

namespace perfbench {

enum class Workload { kUniformOneShot, kHotRepeat, kSessionPaging };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

/// Fixed shape of the served traffic (identical for every seed).
inline constexpr int kClients = 2;
inline constexpr int kTopK = 4;            ///< one-shot top-k k
inline constexpr int kHotSpecs = 1024;     ///< hot_repeat hot-set size
inline constexpr double kZipfS = 0.99;     ///< hot_repeat skew
inline constexpr int kSessionBatches = 4;  ///< Next() calls per session
inline constexpr int kSessionBatchN = 4;   ///< rows per Next()

/// The half-open range [begin, end) of `n` items that client `c` of
/// `clients` replays. Contiguous and static: a run's partition depends on
/// nothing but `n`, and the slices tile [0, n) exactly.
struct Slice {
  size_t begin = 0;
  size_t end = 0;
};
Slice ClientSlice(size_t n, int clients, int c);

/// Nearest-rank percentile `pct` (in (0, 100)) of `samples`, or nullopt
/// when fewer than 10 samples lie strictly beyond it: a tail percentile
/// is only reported where it rests on at least ten observations.
std::optional<double> TailPercentile(std::vector<double> samples, double pct);

/// Median (nearest-rank 50th percentile); 0 for an empty sample.
double Median(std::vector<double> samples);

/// One-shot traffic: skyline and top-k (k = kTopK, uniform random weights)
/// alternate, each at a uniform on-edge location (paper §VI).
std::vector<mcn::api::QuerySpec> UniformOneShotSpecs(
    const mcn::graph::MultiCostGraph& graph, uint64_t seed, size_t count);

/// The hot set of hot_repeat: kHotSpecs one-shot specs (half skyline, half
/// top-k), generated like UniformOneShotSpecs.
std::vector<mcn::api::QuerySpec> HotSetSpecs(
    const mcn::graph::MultiCostGraph& graph, uint64_t seed);

/// `count` indices into [0, items) drawn from Zipf(s): rank r (1-based)
/// has probability proportional to r^-s.
std::vector<uint32_t> ZipfDraws(uint64_t seed, uint32_t items, double s,
                                size_t count);

/// Session openers: incremental top-k specs (first batch kSessionBatchN,
/// uniform random weights) at uniform on-edge locations.
std::vector<mcn::api::QuerySpec> SessionSpecs(
    const mcn::graph::MultiCostGraph& graph, uint64_t seed, size_t count);

/// True when no spec of `a` shares a query location with a spec of `b`.
bool LocationsDisjoint(const std::vector<mcn::api::QuerySpec>& a,
                       const std::vector<mcn::api::QuerySpec>& b);

/// Per-purpose seeds derived from the benchmark seed, so the timed list,
/// the warm-up list and the hot-set stream never share a random stream.
uint64_t DeriveSeed(uint64_t seed, uint64_t purpose);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
