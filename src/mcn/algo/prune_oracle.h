// PruneOracle: the skyline shrinking-stage frontier pruner (DESIGN.md §12).
// Installed on the engine at the growing/shrinking transition (BuildFilter),
// it answers one question per node pop: can settling this node possibly
// still matter to any facility the query still needs pops for? If provably
// not, the expansion is elided before its adjacency probe touches a page.
//
// Exactness argument (why index-on and index-off runs are byte-identical):
//
// After BuildFilter the set of facilities whose future pops the algorithm
// consumes is exactly the candidate filter's membership (candidates plus
// non-pinned skyline members); the filter only shrinks from then on, and a
// facility leaves it precisely when its remaining pops stop mattering
// (pinned, promoted, or eliminated — eliminated pops are discarded by
// HandlePop). A facility's pop key in expansion i is determined by the
// settle distances of its edge endpoints (plus static along-edge offsets
// and, for the query edge, static seeds). So it suffices to keep the
// Dijkstra tree to every *protected endpoint* — an unsettled endpoint of a
// still-filtered, not-yet-settled facility's edge — intact.
//
// The oracle prunes node v popped at exact distance g in expansion i only
// when, for every protected endpoint e, some landmark lm certifies
//
//     g + lower_bound(dist_i(v, e)) > UB_i(e),
//
// where lower_bound comes from the landmark triangle inequality
// (lo_v - hi_e or lo_e - hi_v, rows from net::LandmarkIndexReader) and
// UB_i(e) = min(e's live tentative key, min_lm(hi_q + hi_e)) is a true
// upper bound on dist_i(q, e). Induction over pop order: if w lies on a
// shortest q->e path, then g_w + dist_i(w, e) = dist_i(q, e) <= UB_i(e),
// and no admissible lower bound can push the sum strictly above UB_i(e) —
// so every node of every shortest path to a protected endpoint survives,
// endpoint settle distances are unchanged, and every consumed pop (and
// every frontier value the control flow compares against) is identical.
// A protected endpoint never prunes itself: its own tentative key
// participates in UB_i(e), so g + (lo_v - hi_v) <= g <= UB fails the
// strict inequality.
//
// The oracle's own I/O is kept a small fraction of the probes it elides
// by zero-I/O paths that decide some checks without loading v's row:
//  1. prune-all: when no endpoint is live (maxub = -inf), or g exceeds
//     every live endpoint's UB, the prune is certified with
//     lower_bound(dist_i(v, e)) = 0 — no row needed.
//  2. the certificate gate: every certificate the full check can produce
//     implies 2g > gate_i, where gate_i is built from *known* rows only —
//     via the triangle inequality through q, lo_v(lm) <= g + hi_q(lm) and
//     hi_v(lm) >= lo_q(lm) - g bound the unseen row both ways, so
//       cert 1 (g + lo_v - hi_e > UB) implies 2g > UB + hi_e - hi_q, and
//       cert 2 (g + lo_e - hi_v > UB) implies 2g > UB + lo_q - lo_e.
//     A prune certifies *every* live endpoint through *some* landmark, so
//     prune implies 2g > gate_i = max_e min_lm of those thresholds, and a
//     check with 2g <= gate_i provably cannot prune: it declines with zero
//     I/O.
//  3. a per-(expansion, landmark) screen max_e(UB_i(e) + hi_e(lm))
//     certifies all endpoints with one comparison against v's row.
// All three are refreshed deterministically every kScreenRefresh calls;
// stale UBs are only ever too large (they fall monotonically, the endpoint
// set only shrinks), which makes stale screens too large and the stale
// gate too large — both lose prunes, never correctness.
//
// Where the checks land (fig. 8(a) base, d=4, L=64, the client-seen
// benchmark's uniform_oneshot list): 4% decline at the gate, 4% are cut by
// the screen, 92% reach the full check, and 10% of those cut. So the full
// check is the oracle's cost, and it is built to touch as little as it can
// while reaching the same verdict as the plain "for every endpoint, for
// every landmark" scan:
//
//  * Order independence. The verdict is "every live endpoint has some
//    certifying landmark" — a conjunction over endpoints of disjunctions
//    over landmarks, over query state that no term changes (the check
//    does no I/O and writes only its own memos). Its value does not
//    depend on the order either is evaluated in. So each
//    expansion tries its most recent decliners first (a move-to-front
//    list), and each (expansion, endpoint) first tries the landmark that
//    last certified it (likely to certify again: one term, not a scan).
//    Only the endpoint that declines needs the full O(L) scan. The
//    refreshed aggregates (maxub, gate, screen) are max/min folds, also
//    order-free.
//  * Monotone liveness. An endpoint is live in expansion i while it is
//    unsettled there and one of its facilities is still in the filter and
//    unsettled there. After BuildFilter a settled node stays settled, a
//    settled facility stays settled and the filter only loses members, so
//    an endpoint once dead in expansion i is dead for the rest of the
//    query. Each expansion therefore keeps a compact list of the
//    endpoints not yet seen dead and swap-erases one the first time it is
//    seen dead (by a refresh, or by a full check that could not certify
//    it). Dead endpoints still on the list may be certified or not —
//    their verdict does not count — so the full check tests liveness only
//    for an endpoint it cannot certify. Debug builds re-check every
//    dropped endpoint at each refresh.
#ifndef MCN_ALGO_PRUNE_ORACLE_H_
#define MCN_ALGO_PRUNE_ORACLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "mcn/common/flat_u64_map.h"
#include "mcn/common/result.h"
#include "mcn/expand/engines.h"
#include "mcn/expand/single_expansion.h"
#include "mcn/graph/multi_cost_graph.h"
#include "mcn/net/landmark_index.h"

namespace mcn::algo {

class PruneOracle : public expand::NodePruner {
 public:
  /// One shrinking-stage facility with its edge endpoints, snapshotted at
  /// BuildFilter (the filter's membership at installation time).
  struct ProtectedFacility {
    graph::FacilityId facility;
    graph::NodeId u;
    graph::NodeId v;
  };

  /// `engine` and `filter` are the live query state (read every call);
  /// `index` must be validated and outlive the oracle. `checked`/`cut`
  /// point at the owner's stats counters. Construction loads one index row
  /// per distinct endpoint (charged to the index pool, never the network
  /// pools). Fails only on index I/O errors.
  static Result<std::unique_ptr<PruneOracle>> Create(
      const expand::NnEngine* engine, net::LandmarkIndexReader* index,
      const expand::FacilityFilter* filter,
      std::vector<ProtectedFacility> protected_facilities, uint64_t* checked,
      uint64_t* cut);

  bool ShouldPrune(int cost_index, graph::NodeId v, double key) override;

 private:
  /// Screens go stale for at most this many ShouldPrune calls per
  /// expansion. Deterministic (call-counted, not timed) so runs replay.
  static constexpr int kScreenRefresh = 64;
  /// Memoized index rows per arena block; a block never moves once filled.
  static constexpr uint32_t kRowsPerBlock = 32;

  PruneOracle(const expand::NnEngine* engine, net::LandmarkIndexReader* index,
              const expand::FacilityFilter* filter, uint64_t* checked,
              uint64_t* cut);

  /// Some facility on endpoint `k` is still in the filter and not yet
  /// settled by `exp` (the endpoint node itself is checked separately).
  bool FacilitiesLive(const expand::SingleExpansion& exp, uint32_t k) const;
  /// Whether some landmark certifies g + lower_bound(dist_i(v, e_k)) > ub.
  /// `row` is v's dimension-i row; tries the memoized landmark first.
  bool Certifies(int i, uint32_t k, const float* row, double key, double ub);
  /// Swap-erases live_[i][pos]: the endpoint was seen dead in expansion i.
  void DropEndpoint(int i, size_t pos);
  /// v's full row (d_ * L_ floats), loaded from the index at most once per
  /// query; nullptr when the load fails.
  const float* NodeRow(graph::NodeId v);
  void RefreshScreens(int i);

  const expand::NnEngine* engine_;
  net::LandmarkIndexReader* index_;
  const expand::FacilityFilter* filter_;
  uint64_t* checked_;
  uint64_t* cut_;

  int d_ = 0;
  uint32_t L_ = 0;
  std::vector<graph::NodeId> ep_node_;  ///< [ep]
  std::vector<std::vector<graph::FacilityId>> ep_facs_;  ///< [ep]: users
  std::vector<float> ep_lo_;    ///< [i][ep][lm]: stored lower bounds
  std::vector<float> ep_hi_;    ///< [i][ep][lm]: matching upper bounds
  std::vector<double> ub0_;     ///< [i][ep]: min_lm(q_hi + ep_hi)
  std::vector<double> gate_min_;  ///< [i][ep]: gate term minus UB (static)
  std::vector<uint32_t> cert_lm_;  ///< [i][ep]: landmark that last certified
  std::vector<std::vector<uint32_t>> live_;  ///< [i]: endpoints not seen dead
#ifndef NDEBUG
  std::vector<std::vector<uint32_t>> dropped_;  ///< [i]: re-checked on refresh
#endif
  std::vector<double> q_hi_;    ///< [i][lm]: upper bound on dist_i(q, lm)
  std::vector<double> q_lo_;    ///< [i][lm]: lower bound on dist_i(q, lm)
  std::vector<double> screen_;  ///< [i][lm]: fast-path threshold
  std::vector<double> maxub_;   ///< [i]: max live-endpoint UB (zero-I/O path)
  std::vector<double> gate_;    ///< [i]: certificate gate (zero-I/O path)
  std::vector<int> refresh_in_;  ///< [i]: calls until next screen refresh

  /// Per-query row memo (node+1 -> row slot in row_blocks_): round-robin
  /// probing checks the same node in up to d expansions, so each row is
  /// fetched from the index pool at most once per query — the same
  /// fetched-at-most-once contract the engine keeps for adjacency pages
  /// (DESIGN.md §4). Rows live in fixed-size blocks, so the memo grows
  /// without copying what it holds; it lives exactly as long as the query.
  FlatU64Map row_cache_;
  std::vector<std::unique_ptr<float[]>> row_blocks_;
  uint32_t num_rows_ = 0;
};

}  // namespace mcn::algo

#endif  // MCN_ALGO_PRUNE_ORACLE_H_
