#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <tuple>

#include "mcn/common/hash.h"
#include "mcn/common/macros.h"
#include "mcn/common/random.h"
#include "mcn/gen/facility_generator.h"

namespace perfbench {

using mcn::Random;
using mcn::api::QuerySpec;

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : {Workload::kUniformOneShot, Workload::kHotRepeat,
                     Workload::kSessionPaging}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kUniformOneShot:
      return "uniform_oneshot";
    case Workload::kHotRepeat:
      return "hot_repeat";
    case Workload::kSessionPaging:
      return "session_paging";
  }
  return "?";
}

Slice ClientSlice(size_t n, int clients, int c) {
  MCN_CHECK(clients > 0 && c >= 0 && c < clients);
  const size_t k = static_cast<size_t>(clients);
  const size_t i = static_cast<size_t>(c);
  return Slice{n * i / k, n * (i + 1) / k};
}

std::optional<double> TailPercentile(std::vector<double> samples,
                                     double pct) {
  MCN_CHECK(pct > 0 && pct < 100);
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest sample with at least pct% of the samples
  // at or below it.
  const size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n)));
  const size_t index = std::max<size_t>(rank, 1) - 1;
  if (n - 1 - index < 10) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const size_t index = (samples.size() + 1) / 2 - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

uint64_t DeriveSeed(uint64_t seed, uint64_t purpose) {
  return mcn::MixU64(mcn::MixU64(seed) ^ (purpose * 0x9E3779B97F4A7C15ull));
}

namespace {

std::vector<double> RandomWeights(Random& rng, int d) {
  std::vector<double> weights(static_cast<size_t>(d));
  for (double& w : weights) w = rng.NextDouble();
  return weights;
}

}  // namespace

std::vector<QuerySpec> UniformOneShotSpecs(
    const mcn::graph::MultiCostGraph& graph, uint64_t seed, size_t count) {
  Random rng(seed);
  std::vector<QuerySpec> specs;
  specs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const mcn::graph::Location loc = mcn::gen::RandomLocation(graph, rng);
    if (i % 2 == 0) {
      specs.push_back(mcn::api::SkylineSpec(loc));
    } else {
      specs.push_back(mcn::api::TopKSpec(
          loc, kTopK, RandomWeights(rng, graph.num_costs())));
    }
  }
  return specs;
}

std::vector<QuerySpec> HotSetSpecs(const mcn::graph::MultiCostGraph& graph,
                                   uint64_t seed) {
  return UniformOneShotSpecs(graph, seed, kHotSpecs);
}

std::vector<uint32_t> ZipfDraws(uint64_t seed, uint32_t items, double s,
                                size_t count) {
  MCN_CHECK(items > 0);
  std::vector<double> cdf(items);
  double total = 0;
  for (uint32_t r = 0; r < items; ++r) {
    total += std::pow(static_cast<double>(r + 1), -s);
    cdf[r] = total;
  }
  Random rng(seed);
  std::vector<uint32_t> draws;
  draws.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const double u = rng.NextDouble() * total;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    draws.push_back(static_cast<uint32_t>(
        std::min<ptrdiff_t>(it - cdf.begin(), items - 1)));
  }
  return draws;
}

std::vector<QuerySpec> SessionSpecs(const mcn::graph::MultiCostGraph& graph,
                                    uint64_t seed, size_t count) {
  Random rng(seed);
  std::vector<QuerySpec> specs;
  specs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const mcn::graph::Location loc = mcn::gen::RandomLocation(graph, rng);
    specs.push_back(mcn::api::IncrementalSpec(
        loc, kSessionBatchN, RandomWeights(rng, graph.num_costs())));
  }
  return specs;
}

namespace {

using LocationKey = std::tuple<bool, uint64_t, uint64_t>;

LocationKey KeyOf(const mcn::graph::Location& loc) {
  if (loc.is_node()) return {true, loc.node(), 0};
  const double frac = loc.frac();
  uint64_t bits = 0;
  std::memcpy(&bits, &frac, sizeof bits);
  return {false, loc.edge().Pack(), bits};
}

}  // namespace

bool LocationsDisjoint(const std::vector<QuerySpec>& a,
                       const std::vector<QuerySpec>& b) {
  std::set<LocationKey> seen;
  for (const QuerySpec& spec : a) seen.insert(KeyOf(spec.location));
  for (const QuerySpec& spec : b) {
    if (seen.count(KeyOf(spec.location)) != 0) return false;
  }
  return true;
}

}  // namespace perfbench
