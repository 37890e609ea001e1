#include "mcn/algo/prune_oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "mcn/common/flat_u64_map.h"
#include "mcn/common/macros.h"
#include "mcn/graph/location.h"

namespace mcn::algo {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

PruneOracle::PruneOracle(const expand::NnEngine* engine,
                         net::LandmarkIndexReader* index,
                         const expand::FacilityFilter* filter,
                         uint64_t* checked, uint64_t* cut)
    : engine_(engine),
      index_(index),
      filter_(filter),
      checked_(checked),
      cut_(cut) {}

Result<std::unique_ptr<PruneOracle>> PruneOracle::Create(
    const expand::NnEngine* engine, net::LandmarkIndexReader* index,
    const expand::FacilityFilter* filter,
    std::vector<ProtectedFacility> protected_facilities, uint64_t* checked,
    uint64_t* cut) {
  MCN_CHECK(engine != nullptr && index != nullptr && filter != nullptr);
  MCN_CHECK(checked != nullptr && cut != nullptr);
  auto oracle = std::unique_ptr<PruneOracle>(
      new PruneOracle(engine, index, filter, checked, cut));
  oracle->d_ = engine->num_costs();
  oracle->L_ = index->num_landmarks();
  MCN_CHECK(oracle->d_ == index->num_costs());
  MCN_CHECK(oracle->L_ > 0);
  const int d = oracle->d_;
  const uint32_t L = oracle->L_;

  // Distinct endpoints, in first-appearance order (deterministic: the
  // snapshot arrives in BuildFilter's iteration order). Keys are node+1:
  // the map's empty-key sentinel must stay unused.
  FlatU64Map ep_of;
  for (const ProtectedFacility& pf : protected_facilities) {
    for (graph::NodeId node : {pf.u, pf.v}) {
      uint32_t k = ep_of.Find(static_cast<uint64_t>(node) + 1);
      if (k == FlatU64Map::kNoValue) {
        k = static_cast<uint32_t>(oracle->ep_node_.size());
        oracle->ep_node_.push_back(node);
        oracle->ep_facs_.emplace_back();
        ep_of.Insert(static_cast<uint64_t>(node) + 1, k);
      }
      oracle->ep_facs_[k].push_back(pf.facility);
    }
  }
  const uint32_t n = static_cast<uint32_t>(oracle->ep_node_.size());

  // Endpoint rows, loaded in endpoint order and stored landmark-contiguous
  // per (expansion, endpoint), so one expansion's endpoints sit together.
  const size_t row_len = static_cast<size_t>(d) * L;
  std::vector<float> row(row_len);
  oracle->ep_lo_.assign(static_cast<size_t>(n) * row_len, 0.0f);
  oracle->ep_hi_.assign(static_cast<size_t>(n) * row_len, 0.0f);
  for (uint32_t k = 0; k < n; ++k) {
    MCN_RETURN_IF_ERROR(index->LoadNodeRow(oracle->ep_node_[k], row.data()));
    for (int i = 0; i < d; ++i) {
      const size_t at = (static_cast<size_t>(i) * n + k) * L;
      for (uint32_t lm = 0; lm < L; ++lm) {
        const float lo = row[static_cast<size_t>(i) * L + lm];
        oracle->ep_lo_[at + lm] = lo;
        oracle->ep_hi_[at + lm] = net::LandmarkUpperBound(lo);
      }
    }
  }

  // Bounds on dist_i(q, lm), both ways. Node query: q's own row. Edge
  // query: through either endpoint, with the partial-edge cost rounded
  // *up* so the double product cannot undercut the true length — which
  // makes it safe on both sides (hi: add it; lo: subtract it).
  oracle->q_hi_.assign(row_len, kInf);
  oracle->q_lo_.assign(row_len, 0.0);
  const graph::Location& q = engine->query();
  if (q.is_node()) {
    MCN_RETURN_IF_ERROR(index->LoadNodeRow(q.node(), row.data()));
    for (size_t j = 0; j < row_len; ++j) {
      oracle->q_lo_[j] = row[j];
      oracle->q_hi_[j] = net::LandmarkUpperBound(row[j]);
    }
  } else {
    const graph::CostVector& w = engine->seed_edge_costs();
    MCN_CHECK(w.dim() == d);
    std::vector<double> end_lo(2 * row_len, kInf);
    std::vector<double> end_hi(2 * row_len, kInf);
    const graph::NodeId ends[2] = {q.edge().u, q.edge().v};
    for (int s = 0; s < 2; ++s) {
      MCN_RETURN_IF_ERROR(index->LoadNodeRow(ends[s], row.data()));
      for (size_t j = 0; j < row_len; ++j) {
        end_lo[s * row_len + j] = row[j];
        end_hi[s * row_len + j] = net::LandmarkUpperBound(row[j]);
      }
    }
    for (int i = 0; i < d; ++i) {
      const double to_u = std::nextafter(q.frac() * w[i], kInf);
      const double to_v = std::nextafter((1.0 - q.frac()) * w[i], kInf);
      for (uint32_t lm = 0; lm < L; ++lm) {
        const size_t j = static_cast<size_t>(i) * L + lm;
        oracle->q_hi_[j] =
            std::min(to_u + end_hi[j], to_v + end_hi[row_len + j]);
        if (std::isfinite(end_lo[j])) {
          // dist(q, lm) >= dist(end, lm) - dist(q, end) for either end.
          oracle->q_lo_[j] = std::max(
              0.0, std::max(end_lo[j] - to_u, end_lo[row_len + j] - to_v));
        }
      }
    }
  }

  // Per (expansion, endpoint): the static through-landmark bound, and the
  // static part of the endpoint's gate term (RefreshScreens). Landmarks
  // with non-finite inputs cannot produce a certificate (unreachable
  // component) and impose no threshold.
  oracle->ub0_.assign(static_cast<size_t>(d) * n, kInf);
  oracle->gate_min_.assign(static_cast<size_t>(d) * n, kInf);
  for (int i = 0; i < d; ++i) {
    const double* q_hi = &oracle->q_hi_[static_cast<size_t>(i) * L];
    const double* q_lo = &oracle->q_lo_[static_cast<size_t>(i) * L];
    for (uint32_t k = 0; k < n; ++k) {
      const size_t at = static_cast<size_t>(i) * n + k;
      const float* lo_e = &oracle->ep_lo_[at * L];
      const float* hi_e = &oracle->ep_hi_[at * L];
      double best = kInf;
      double gate_min = kInf;
      for (uint32_t lm = 0; lm < L; ++lm) {
        best = std::min(best, q_hi[lm] + hi_e[lm]);
        if (!std::isfinite(q_hi[lm]) || !std::isfinite(hi_e[lm])) continue;
        gate_min = std::min(gate_min, std::min(hi_e[lm] - q_hi[lm],
                                               q_lo[lm] - lo_e[lm]));
      }
      oracle->ub0_[at] = best;
      oracle->gate_min_[at] = gate_min;
    }
  }

  oracle->cert_lm_.assign(static_cast<size_t>(d) * n, 0);
  oracle->live_.resize(d);
  for (std::vector<uint32_t>& live : oracle->live_) {
    live.resize(n);
    std::iota(live.begin(), live.end(), 0u);
  }
#ifndef NDEBUG
  oracle->dropped_.resize(d);
#endif
  oracle->screen_.assign(row_len, -kInf);
  oracle->maxub_.assign(d, -kInf);
  oracle->gate_.assign(d, -kInf);
  oracle->refresh_in_.assign(d, 0);  // refresh on each expansion's first call
  return oracle;
}

bool PruneOracle::FacilitiesLive(const expand::SingleExpansion& exp,
                                 uint32_t k) const {
  for (graph::FacilityId f : ep_facs_[k]) {
    if (filter_->Contains(f) && !exp.FacilitySettled(f)) return true;
  }
  return false;
}

void PruneOracle::DropEndpoint(int i, size_t pos) {
  std::vector<uint32_t>& live = live_[i];
#ifndef NDEBUG
  dropped_[i].push_back(live[pos]);
#endif
  live[pos] = live.back();
  live.pop_back();
}

void PruneOracle::RefreshScreens(int i) {
  double* screen = &screen_[static_cast<size_t>(i) * L_];
  for (uint32_t lm = 0; lm < L_; ++lm) screen[lm] = -kInf;
  maxub_[i] = -kInf;
  gate_[i] = -kInf;
  const expand::SingleExpansion& exp = engine_->expansion(i);
  const size_t base = static_cast<size_t>(i) * ep_node_.size();
  std::vector<uint32_t>& live = live_[i];
  for (size_t pos = 0; pos < live.size();) {
    const uint32_t k = live[pos];
    const graph::NodeId node = ep_node_[k];
    const double tentative = exp.NodeTentativeKey(node);
    if (expand::SingleExpansion::IsSettledKey(tentative) ||
        !FacilitiesLive(exp, k)) {
      DropEndpoint(i, pos);
      continue;
    }
    ++pos;
    // Unsettled, so the tentative key is a live upper bound (+inf when
    // never relaxed).
    const double ub = std::min(ub0_[base + k], tentative);
    maxub_[i] = std::max(maxub_[i], ub);
    const float* hi_e = &ep_hi_[(base + k) * L_];
    // This endpoint's gate term: certifying it via landmark lm implies
    // 2*key exceeds one of the two thresholds (header, fast path 2), i.e.
    // 2*key > ub + m_lm with m_lm = min(hi_e - q_hi, q_lo - lo_e), so it
    // implies 2*key > min over lm of (ub + m_lm). Rounding is monotone, so
    // that min is ub + min_lm m_lm = ub + gate_min_, bit for bit. An
    // endpoint with no usable landmark (gate_min_ = inf) or ub = inf can
    // never be certified; its +inf term disables every check for free.
    const double term =
        std::isfinite(ub) ? ub + gate_min_[base + k] : kInf;
    gate_[i] = std::max(gate_[i], term);
    for (uint32_t lm = 0; lm < L_; ++lm) {
      screen[lm] = std::max(screen[lm], ub + hi_e[lm]);
    }
  }
#ifndef NDEBUG
  // Monotone liveness (header): a dropped endpoint never comes back.
  for (uint32_t k : dropped_[i]) {
    MCN_DCHECK(exp.NodeSettled(ep_node_[k]) || !FacilitiesLive(exp, k));
  }
#endif
}

const float* PruneOracle::NodeRow(graph::NodeId v) {
  const size_t row_len = static_cast<size_t>(d_) * L_;
  uint32_t slot = row_cache_.Find(static_cast<uint64_t>(v) + 1);
  if (slot == FlatU64Map::kNoValue) {
    if (row_blocks_.size() * kRowsPerBlock == num_rows_) {  // all full
      row_blocks_.push_back(
          std::make_unique_for_overwrite<float[]>(kRowsPerBlock * row_len));
    }
    float* dst = row_blocks_.back().get() +
                 static_cast<size_t>(num_rows_ % kRowsPerBlock) * row_len;
    if (!index_->LoadNodeRow(v, dst).ok()) return nullptr;
    slot = num_rows_++;
    row_cache_.Insert(static_cast<uint64_t>(v) + 1, slot);
  }
  return row_blocks_[slot / kRowsPerBlock].get() +
         static_cast<size_t>(slot % kRowsPerBlock) * row_len;
}

bool PruneOracle::Certifies(int i, uint32_t k, const float* row, double key,
                            double ub) {
  const size_t at = static_cast<size_t>(i) * ep_node_.size() + k;
  const float* lo_e = &ep_lo_[at * L_];
  const float* hi_e = &ep_hi_[at * L_];
  auto term = [&](uint32_t lm) {
    const double lo_v = row[lm];
    if (std::isfinite(hi_e[lm]) && key + (lo_v - hi_e[lm]) > ub) return true;
    const double hi_v = net::LandmarkUpperBound(row[lm]);
    return std::isfinite(hi_v) && key + (lo_e[lm] - hi_v) > ub;
  };
  uint32_t& memo = cert_lm_[at];
  if (term(memo)) return true;
  for (uint32_t lm = 0; lm < L_; ++lm) {
    if (lm != memo && term(lm)) {
      memo = lm;
      return true;
    }
  }
  return false;
}

bool PruneOracle::ShouldPrune(int cost_index, graph::NodeId v, double key) {
  ++*checked_;
  const int i = cost_index;
  if (refresh_in_[i] == 0) {
    RefreshScreens(i);
    refresh_in_[i] = kScreenRefresh;
  }
  --refresh_in_[i];

  // Zero-I/O fast path: past the farthest live endpoint's upper bound,
  // settling v cannot matter to anyone — lower_bound(dist_i(v, e)) = 0
  // already certifies every endpoint, so no index row is read. A node on
  // a shortest q->e path pops at g <= dist_i(q, e) <= UB_i(e) <= maxub
  // and never takes this branch (the strict > keeps the tree intact).
  if (key > maxub_[i]) {
    ++*cut_;
    return true;
  }

  // Zero-I/O fast path: below the certificate gate no landmark can
  // certify every live endpoint (header, fast path 2) — the check
  // declines without reading v's row.
  if (2.0 * key <= gate_[i]) return false;

  // At most one counted fetch against the index pool per node per query
  // (the memo serves repeat checks from other expansions); a failed load
  // just declines to prune (pruning is an optimization, never a
  // correctness dependency).
  const float* full_row = NodeRow(v);
  if (full_row == nullptr) return false;
  const float* row = full_row + static_cast<size_t>(i) * L_;

  // Fast path: one comparison certifies the prune for every live endpoint
  // at once. Screens may be stale but only ever too large (see header).
  const double* screen = &screen_[static_cast<size_t>(i) * L_];
  for (uint32_t lm = 0; lm < L_; ++lm) {
    if (screen[lm] < kInf && key + row[lm] > screen[lm]) {
      ++*cut_;
      return true;
    }
  }

  // Full check: every live protected endpoint needs its own certificate.
  // Evaluation order is free (header): recent decliners sit first.
  const expand::SingleExpansion& exp = engine_->expansion(i);
  const size_t base = static_cast<size_t>(i) * ep_node_.size();
  std::vector<uint32_t>& live = live_[i];
  for (size_t pos = 0; pos < live.size();) {
    const uint32_t k = live[pos];
    const graph::NodeId node = ep_node_[k];
    const double tentative = exp.NodeTentativeKey(node);
    if (expand::SingleExpansion::IsSettledKey(tentative)) {
      DropEndpoint(i, pos);
      continue;
    }
    const double ub = std::min(ub0_[base + k], tentative);
    if (Certifies(i, k, row, key, ub)) {
      ++pos;
      continue;
    }
    if (!FacilitiesLive(exp, k)) {
      DropEndpoint(i, pos);
      continue;
    }
    // Most recent decliner first, the earlier ones right behind it.
    std::rotate(live.begin(), live.begin() + static_cast<std::ptrdiff_t>(pos),
                live.begin() + static_cast<std::ptrdiff_t>(pos) + 1);
    return false;
  }
  ++*cut_;
  return true;
}

}  // namespace mcn::algo
