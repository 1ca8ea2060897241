#ifndef CLUSTAGG_CORE_INTERNAL_MOVE_STATE_H_
#define CLUSTAGG_CORE_INTERNAL_MOVE_STATE_H_

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/clustering.h"
#include "core/correlation_instance.h"

namespace clustagg::internal {

/// Mutable single-object-move state shared by LOCALSEARCH and ANNEALING:
/// cluster slots with sizes and the M(v, slot) = sum_{u in slot} X_vu
/// table (Section 4's bookkeeping). Evaluating all moves of one object
/// costs O(#clusters); applying a move costs O(n) for the two affected
/// M rows. Slots are compacted when a cluster empties.
///
/// Folded instances (CorrelationInstance::folded) generalize every sum
/// with the fold multiplicities: M(v, slot) = sum_{u in slot} w_u X_vu,
/// slot sizes become sum_{u in slot} w_u, and a move of v — which stands
/// for w_v identical originals moving together — has its cost delta
/// scaled by w_v so LOCALSEARCH thresholds and ANNEALING temperatures
/// operate on true-objective deltas. With all-ones multiplicities the
/// weighted arithmetic is bit-identical to the historical unweighted
/// state (multiplying by 1.0 is exact, and sums of 1.0 reproduce the
/// integer sizes exactly).
class MoveState {
 public:
  /// Sentinel target meaning "open a fresh singleton cluster".
  static constexpr std::size_t kSingletonTarget =
      static_cast<std::size_t>(-1);

  MoveState(const CorrelationInstance& instance, const Clustering& initial)
      : MoveState(instance, initial, RunContext(), nullptr) {}

  /// Budgeted construction: building the M table is the O(n^2) (dense) /
  /// O(n^2 m) (lazy) up-front cost of both sweep algorithms, so it polls
  /// `run` too. When it is interrupted, *completed is set false and the
  /// state is NOT usable for moves — callers must discard it and return
  /// their starting partition unchanged. (A half-built M table would
  /// silently corrupt every subsequent move evaluation.)
  MoveState(const CorrelationInstance& instance, const Clustering& initial,
            const RunContext& run, bool* completed)
      : instance_(instance), n_(instance.size()), row_buf_(n_) {
    Clustering norm = initial;
    const std::size_t k = norm.Normalize();
    w_.assign(n_, 1.0);
    if (instance.folded()) {
      for (std::size_t v = 0; v < n_; ++v) w_[v] = instance.multiplicity(v);
    }
    assignment_.resize(n_);
    sizes_.assign(k, 0);
    wsizes_.assign(k, 0.0);
    m_.assign(k, std::vector<double>(n_, 0.0));
    for (std::size_t v = 0; v < n_; ++v) {
      const auto c = static_cast<std::size_t>(norm.label(v));
      assignment_[v] = c;
      ++sizes_[c];
      wsizes_[c] += w_[v];
    }
    // Column u of every M row is owned by exactly one task, so rows of
    // the distance source can be consumed in parallel; each m_[c][u]
    // still accumulates its members in ascending v, the serial order,
    // making the table bit-identical for every thread count.
    const bool ok = instance_.ForEachRow(
        run, [&](std::size_t u, std::span<const double> row) {
          for (std::size_t v = 0; v < n_; ++v) {
            if (v != u) m_[assignment_[v]][u] += w_[v] * row[v];
          }
        });
    if (completed != nullptr) *completed = ok;
  }

  std::size_t num_objects() const { return n_; }
  std::size_t num_clusters() const { return sizes_.size(); }
  std::size_t cluster_of(std::size_t v) const { return assignment_[v]; }
  std::size_t cluster_size(std::size_t c) const { return sizes_[c]; }

  /// d(v, C_j) for every current cluster j plus the fresh-singleton cost,
  /// all with v conceptually removed from its own cluster:
  ///   singleton = T = sum_j (|C_j| - M(v, C_j)),
  ///   join(j)   = T + 2 M(v, C_j) - |C_j|.
  /// Returns {T, join costs per slot}. Under folding, sizes and M are the
  /// weighted sums and the values are per original copy of v (not scaled
  /// by w_v), so relative comparisons between targets are unchanged.
  std::pair<double, std::vector<double>> EvaluateMoves(
      std::size_t v) const {
    const std::size_t current = assignment_[v];
    const double wv = w_[v];
    const std::size_t k = sizes_.size();
    double t = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      t += SizeWithoutV(j, current, wv) - m_[j][v];
    }
    std::vector<double> join(k);
    for (std::size_t j = 0; j < k; ++j) {
      join[j] = t + 2.0 * m_[j][v] - SizeWithoutV(j, current, wv);
    }
    return {t, std::move(join)};
  }

  /// Greedy step: evaluates every move for v and applies the best one if
  /// it improves on staying by more than `min_improvement` (allocation-
  /// free; the hot path of LOCALSEARCH). Returns true if v moved; a move
  /// adds its cost decrease (strictly positive) to *improvement when the
  /// pointer is non-null, letting callers accumulate a convergence curve
  /// without re-deriving costs. A nonzero `max_cluster_size` filters the
  /// join candidates to clusters that would stay within the cap (in
  /// weighted objects — fold multiplicities count); the fresh-singleton
  /// target is always legal.
  bool TryImproveBest(std::size_t v, double min_improvement,
                      double* improvement = nullptr,
                      std::size_t max_cluster_size = 0) {
    const std::size_t current = assignment_[v];
    const double wv = w_[v];
    const std::size_t k = sizes_.size();
    double t = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      t += SizeWithoutV(j, current, wv) - m_[j][v];
    }
    auto join_cost = [&](std::size_t j) {
      return t + 2.0 * m_[j][v] - SizeWithoutV(j, current, wv);
    };
    const double cap = static_cast<double>(max_cluster_size);
    const double stay_cost = join_cost(current);
    double best_cost = t;  // fresh singleton
    std::size_t best = kSingletonTarget;
    for (std::size_t j = 0; j < k; ++j) {
      if (max_cluster_size != 0 && j != current &&
          SizeWithoutV(j, current, wv) + wv > cap) {
        continue;
      }
      const double c = join_cost(j);
      if (c < best_cost) {
        best_cost = c;
        best = j;
      }
    }
    // Scale by w_v: the decrease in the true objective is w_v times the
    // per-copy decrease, and the convergence threshold is expressed in
    // true-objective units. w_v = 1.0 leaves the historical arithmetic
    // bit-identical.
    if (best == current ||
        wv * (stay_cost - best_cost) <= min_improvement) {
      return false;
    }
    if (improvement != nullptr) {
      *improvement += wv * (stay_cost - best_cost);
    }
    Apply(v, best);
    return true;
  }

  /// Cost delta of moving v to `target` (a slot index or
  /// kSingletonTarget) relative to staying put, in true-objective units
  /// (scaled by w_v under folding). O(#clusters), allocation-free.
  double MoveDelta(std::size_t v, std::size_t target) const {
    const std::size_t current = assignment_[v];
    const double wv = w_[v];
    const std::size_t k = sizes_.size();
    double t = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      t += SizeWithoutV(j, current, wv) - m_[j][v];
    }
    auto join_cost = [&](std::size_t j) {
      return t + 2.0 * m_[j][v] - SizeWithoutV(j, current, wv);
    };
    const double stay = join_cost(current);
    const double moved =
        target == kSingletonTarget ? t : join_cost(target);
    return wv * (moved - stay);
  }

  /// Moves v to `target` (slot index valid *now*, or kSingletonTarget).
  /// Returns the slot v ended up in.
  std::size_t Apply(std::size_t v, std::size_t target) {
    const std::size_t current = assignment_[v];
    if (target == current) return current;
    // One bulk row query serves both M-row updates: under the lazy
    // backend this halves the O(n m) recomputation per applied move.
    instance_.FillRow(v, row_buf_);
    const std::size_t relocated_from = RemoveFromCluster(v, current);
    if (target == kSingletonTarget) {
      sizes_.push_back(0);
      wsizes_.push_back(0.0);
      m_.emplace_back(n_, 0.0);
      target = sizes_.size() - 1;
    } else {
      // RemoveFromCluster may have compacted the last slot into
      // `current`.
      if (target == relocated_from) target = current;
      CLUSTAGG_CHECK(target < sizes_.size());
    }
    AddToCluster(v, target);
    return target;
  }

  Clustering ToClustering() const {
    std::vector<Clustering::Label> labels(n_);
    for (std::size_t v = 0; v < n_; ++v) {
      labels[v] = static_cast<Clustering::Label>(assignment_[v]);
    }
    return Clustering(std::move(labels)).Normalized();
  }

 private:
  /// Weighted size of slot j with object v (of weight wv, sitting in slot
  /// `current`) conceptually removed.
  double SizeWithoutV(std::size_t j, std::size_t current, double wv) const {
    return wsizes_[j] - (j == current ? wv : 0.0);
  }

  /// Removes v from slot c using the distances staged in row_buf_. If c
  /// empties, the last slot is moved into c and its old index is
  /// returned; otherwise returns a sentinel matching no slot.
  std::size_t RemoveFromCluster(std::size_t v, std::size_t c) {
    CLUSTAGG_CHECK(sizes_[c] > 0);
    --sizes_[c];
    const double wv = w_[v];
    std::vector<double>& row = m_[c];
    for (std::size_t u = 0; u < n_; ++u) {
      if (u != v) row[u] -= wv * row_buf_[u];
    }
    std::size_t relocated_from = sizes_.size();
    if (sizes_[c] == 0) {
      // The emptied slot's weighted size is an exact 0: every member's
      // weight was added once and subtracted once, in kind. Resetting it
      // (rather than trusting the residue) keeps that invariant explicit.
      wsizes_[c] = 0.0;
      const std::size_t last = sizes_.size() - 1;
      if (c != last) {
        sizes_[c] = sizes_[last];
        wsizes_[c] = wsizes_[last];
        m_[c] = std::move(m_[last]);
        for (std::size_t u = 0; u < n_; ++u) {
          if (assignment_[u] == last) assignment_[u] = c;
        }
        relocated_from = last;
      }
      sizes_.pop_back();
      wsizes_.pop_back();
      m_.pop_back();
    } else {
      wsizes_[c] -= wv;
    }
    return relocated_from;
  }

  void AddToCluster(std::size_t v, std::size_t c) {
    assignment_[v] = c;
    ++sizes_[c];
    const double wv = w_[v];
    wsizes_[c] += wv;
    std::vector<double>& row = m_[c];
    for (std::size_t u = 0; u < n_; ++u) {
      if (u != v) row[u] += wv * row_buf_[u];
    }
  }

  const CorrelationInstance& instance_;
  std::size_t n_;
  std::vector<std::size_t> assignment_;
  std::vector<std::size_t> sizes_;
  /// Weighted slot sizes sum_{u in slot} w_u; equal to sizes_ (as exact
  /// integer-valued doubles) when the instance is unfolded.
  std::vector<double> wsizes_;
  /// Fold multiplicity of each object (all 1.0 when unfolded).
  std::vector<double> w_;
  // m_[c][v] = M(v, C_c) = sum of w_u-weighted distances from v to the
  // members of C_c.
  std::vector<std::vector<double>> m_;
  // Scratch row of X_v* for the move being applied.
  std::vector<double> row_buf_;
};

}  // namespace clustagg::internal

#endif  // CLUSTAGG_CORE_INTERNAL_MOVE_STATE_H_
