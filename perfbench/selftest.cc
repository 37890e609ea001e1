// Self-test of the benchmark's own logic: generator determinism and
// disjointness, static client slicing, and the tail-percentile rule.
// Exits non-zero on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "mcn/gen/workload.h"
#include "workload.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

void TestClientSlice() {
  for (size_t n : {0, 1, 2, 3, 7, 100, 1001}) {
    for (int clients : {1, 2, 3, 4}) {
      size_t next = 0;
      for (int c = 0; c < clients; ++c) {
        const Slice s = ClientSlice(n, clients, c);
        Expect(s.begin == next && s.end >= s.begin, "slices tile [0, n)");
        Expect(s.end - s.begin <= n / clients + 1, "slices are balanced");
        next = s.end;
      }
      Expect(next == n, "slices cover n");
    }
  }
  const Slice a = ClientSlice(1000, 2, 1), b = ClientSlice(1000, 2, 1);
  Expect(a.begin == 500 && a.end == 1000 && b.begin == a.begin,
         "slicing is static");
}

void TestTailPercentile() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);  // 1000..1
  const auto p99 = TailPercentile(v, 99);
  Expect(p99.has_value() && *p99 == 990, "p99 of 1..1000 is 990");
  v.pop_back();  // 999 samples: only 9 beyond the 99th percentile
  Expect(!TailPercentile(v, 99).has_value(), "p99 refused below 1000");
  std::vector<double> w(100, 1.0);
  Expect(TailPercentile(w, 90).has_value(), "p90 of 100 samples allowed");
  w.pop_back();
  Expect(!TailPercentile(w, 90).has_value(), "p90 of 99 samples refused");
  Expect(!TailPercentile({}, 50).has_value(), "empty sample refused");
  Expect(Median({3, 1, 2}) == 2 && Median({4, 1, 3, 2}) == 2,
         "nearest-rank median");
}

void TestGenerators() {
  mcn::gen::ExperimentConfig config =
      mcn::gen::ExperimentConfig{}.Scaled(0.01);
  auto instance = mcn::gen::BuildInstance(config);
  Expect(instance.ok(), "tiny instance builds");
  if (!instance.ok()) return;
  const mcn::graph::MultiCostGraph& g = (*instance)->graph;

  Expect(UniformOneShotSpecs(g, 11, 64) == UniformOneShotSpecs(g, 11, 64),
         "uniform specs are deterministic");
  Expect(UniformOneShotSpecs(g, 11, 64) != UniformOneShotSpecs(g, 12, 64),
         "uniform specs depend on the seed");
  Expect(SessionSpecs(g, 5, 16) == SessionSpecs(g, 5, 16),
         "session specs are deterministic");
  Expect(HotSetSpecs(g, 3) == HotSetSpecs(g, 3), "hot set is deterministic");
  Expect(ZipfDraws(4, kHotSpecs, kZipfS, 5000) ==
             ZipfDraws(4, kHotSpecs, kZipfS, 5000),
         "zipf stream is deterministic");

  const auto specs = UniformOneShotSpecs(g, 11, 64);
  Expect(specs[0].kind == mcn::api::QueryKind::kSkyline &&
             specs[1].kind == mcn::api::QueryKind::kTopK &&
             specs[1].k == kTopK,
         "skyline and top-k alternate");
  const auto hot = HotSetSpecs(g, 3);
  Expect(hot.size() == static_cast<size_t>(kHotSpecs), "hot set size");

  // Timed and warm-up lists come from distinct derived seeds and share no
  // query location.
  for (uint64_t seed : {0, 1, 2, 42}) {
    Expect(DeriveSeed(seed, 1) != DeriveSeed(seed, 2), "derived seeds");
    Expect(LocationsDisjoint(UniformOneShotSpecs(g, DeriveSeed(seed, 1), 500),
                             UniformOneShotSpecs(g, DeriveSeed(seed, 2), 125)),
           "uniform warm-up is disjoint from the timed list");
    Expect(LocationsDisjoint(SessionSpecs(g, DeriveSeed(seed, 5), 40),
                             SessionSpecs(g, DeriveSeed(seed, 6), 5)),
           "session warm-up is disjoint from the timed list");
  }
  Expect(!LocationsDisjoint(specs, {specs[7]}), "a shared location is seen");

  // Zipf(0.99) over 1024 ranks: rank 1 is the mode and every draw is in
  // range.
  const auto draws = ZipfDraws(9, kHotSpecs, kZipfS, 20000);
  std::vector<int> counts(kHotSpecs, 0);
  for (uint32_t x : draws) {
    Expect(x < static_cast<uint32_t>(kHotSpecs), "draw in range");
    if (x < static_cast<uint32_t>(kHotSpecs)) ++counts[x];
  }
  Expect(counts[0] > counts[1] && counts[1] > counts[100],
         "zipf ranks are skewed");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestClientSlice();
  perfbench::TestTailPercentile();
  perfbench::TestGenerators();
  if (perfbench::failures != 0) return 1;
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
