#include "local/local_oracle.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "core/instrumentation.h"

namespace clustagg {

namespace {

/// Poll the RunContext once per this many candidate steps: frequent
/// enough that a deadline stops a chain within microseconds, cheap
/// enough that the packed fast path stays ALU-bound.
constexpr std::uint64_t kPollInterval = 64;

}  // namespace

LocalMembershipOracle::LocalMembershipOracle(
    std::shared_ptr<const DistanceSource> source,
    const LocalOracleOptions& options)
    : source_(std::move(source)),
      options_(options),
      owner_(source_->size()) {
  const std::size_t s = source_->size();
  // The exact stream PivotClusterer draws for its first repetition:
  // Rng(seed).Permutation(s). Pinning the draw here is what makes every
  // local answer bit-identical to the global run.
  Rng rng(options_.seed);
  perm_ = rng.Permutation(s);
  rank_.resize(s);
  for (std::size_t r = 0; r < s; ++r) rank_[perm_[r]] = r;
}

Result<LocalMembershipOracle> LocalMembershipOracle::Create(
    std::shared_ptr<const DistanceSource> source,
    const LocalOracleOptions& options) {
  if (source == nullptr) {
    return Status::InvalidArgument("local oracle needs a distance source");
  }
  if (!(options.join_threshold >= 0.0 && options.join_threshold <= 1.0)) {
    return Status::InvalidArgument("join_threshold must lie in [0, 1]");
  }
  return LocalMembershipOracle(std::move(source), options);
}

Result<LocalMembershipOracle> LocalMembershipOracle::FromClusterings(
    const ClusteringSet& input, const MissingValueOptions& missing,
    const LocalOracleOptions& options) {
  Result<std::shared_ptr<const LazyDistanceSource>> source =
      LazyDistanceSource::Build(input, missing);
  if (!source.ok()) return source.status();
  return Create(*std::move(source), options);
}

Result<LocalMembershipOracle> LocalMembershipOracle::FromClusteringsFolded(
    const ClusteringSet& input, const MissingValueOptions& missing,
    const LocalOracleOptions& options) {
  SignatureIndex signatures = SignatureIndex::Build(input);
  Result<std::shared_ptr<const LazyDistanceSource>> source =
      LazyDistanceSource::Build(input.Restrict(signatures.representatives()),
                                missing);
  if (!source.ok()) return source.status();
  Result<LocalMembershipOracle> oracle = Create(*std::move(source), options);
  if (oracle.ok()) oracle->fold_.emplace(std::move(signatures));
  return oracle;
}

void LocalMembershipOracle::ClearMemo() const {
  for (std::atomic<std::size_t>& entry : owner_) {
    entry.store(0, std::memory_order_relaxed);
  }
}

RunOutcome LocalMembershipOracle::ResolveOwner(std::size_t v,
                                               const RunContext& run,
                                               QueryStats* stats,
                                               std::size_t* owner) const {
  if (const std::size_t known = owner_[v].load(std::memory_order_relaxed);
      known != 0) {
    ++stats->memo_hits;
    *owner = known - 1;
    return RunOutcome::kConverged;
  }
  // One frame per in-flight adjudication: walk candidates w = perm_[r]
  // for r in [0, limit) and stop at the first *pivot* within the join
  // threshold; reaching limit makes x a pivot. Descending to adjudicate
  // a candidate pushes a frame with a strictly smaller rank, so the
  // chain is acyclic and at most rank(v) deep.
  struct Frame {
    std::size_t x;       // object being adjudicated (simulation space)
    std::size_t limit;   // rank_[x]: candidates strictly before x
    std::size_t r;       // next candidate rank to examine
    std::size_t handed;  // owner(perm_[r]) + 1 from the popped child, or 0
  };
  std::vector<Frame> stack;
  stack.push_back({v, rank_[v], 0, 0});
  ++stats->inspections;
  stats->chain_depth = std::max<std::uint64_t>(stats->chain_depth, 1);
  const double threshold = options_.join_threshold;
  std::uint64_t steps = 0;
  for (;;) {
    Frame& f = stack.back();
    bool descended = false;
    while (f.r < f.limit) {
      run.ChargeIterations(1);
      if ((++steps % kPollInterval) == 0) {
        if (RunOutcome o = run.Poll(); o != RunOutcome::kConverged) {
          return o;
        }
      }
      const std::size_t w = perm_[f.r];
      std::size_t known = std::exchange(f.handed, 0);
      ++stats->distance_queries;
      if (!(source_->distance(w, f.x) < threshold)) {
        ++f.r;  // w can never own f.x, pivot or not
        continue;
      }
      if (known == 0) {
        known = owner_[w].load(std::memory_order_relaxed);
        if (known != 0) ++stats->memo_hits;
      }
      if (known == 0) {
        // w's pivot status is unknown: adjudicate it first. On return
        // the child hands its owner to this frame, which re-examines
        // rank f.r; the walk never needs the table to make progress, so
        // a concurrent ClearMemo cannot stall it.
        stack.push_back({w, rank_[w], 0, 0});
        ++stats->inspections;
        stats->chain_depth =
            std::max<std::uint64_t>(stats->chain_depth, stack.size());
        descended = true;
        break;
      }
      if (known - 1 == w) break;  // captured: w is a pivot
      ++f.r;                      // w was itself captured earlier; skip
    }
    if (descended) continue;
    // Frame resolved: captured at rank f.r, or walked off the end and
    // f.x is a pivot.
    const std::size_t resolved =
        f.r < f.limit ? perm_[f.r] : f.x;
    owner_[f.x].store(resolved + 1, std::memory_order_relaxed);
    if (stack.size() == 1) {
      *owner = resolved;
      return RunOutcome::kConverged;
    }
    stack.pop_back();
    stack.back().handed = resolved + 1;
  }
}

MembershipAnswer LocalMembershipOracle::QuerySim(
    std::size_t sim_v, std::size_t query_object,
    const RunContext& run) const {
  Telemetry* telemetry = run.telemetry();
  MembershipAnswer answer;
  QueryStats stats;
  std::size_t owner = sim_v;
  InstrumentedTimer query_timer(telemetry, "local.query_nanos");
  answer.outcome = ResolveOwner(sim_v, run, &stats, &owner);
  answer.pivot_inspections = stats.inspections;
  answer.chain_depth = stats.chain_depth;
  answer.distance_queries = stats.distance_queries;
  answer.memo_hits = stats.memo_hits;
  if (answer.outcome == RunOutcome::kConverged) {
    // Map the owning pivot back to query space: the representative's
    // global object id under folding, the object itself otherwise.
    answer.pivot = folded() ? fold_->representatives()[owner] : owner;
  } else {
    // Budget fired mid-chain: degrade to the tagged best-so-far
    // placement — the singleton an interrupted global pass would leave
    // the object in (docs/robustness.md degradation contract).
    answer.pivot = query_object;
    TelemetryCount(telemetry, "local.interrupted_queries");
  }
  TelemetryCount(telemetry, "local.queries");
  TelemetryCount(telemetry, "local.pivot_inspections",
                 stats.inspections);
  TelemetryCount(telemetry, "local.distance_queries",
                 stats.distance_queries);
  TelemetryCount(telemetry, "local.memo_hits", stats.memo_hits);
  TelemetryObserve(telemetry, "local.chain_depth", stats.chain_depth);
  return answer;
}

Result<MembershipAnswer> LocalMembershipOracle::ClusterOf(
    std::size_t u, const RunContext& run) const {
  if (u >= size()) {
    return Status::InvalidArgument(
        "object id " + std::to_string(u) + " out of range [0, " +
        std::to_string(size()) + ")");
  }
  const std::size_t sim_v = folded() ? fold_->signature_of(u) : u;
  return QuerySim(sim_v, u, run);
}

Result<SameClusterAnswer> LocalMembershipOracle::SameCluster(
    std::size_t u, std::size_t v, const RunContext& run) const {
  Result<MembershipAnswer> a = ClusterOf(u, run);
  if (!a.ok()) return a.status();
  Result<MembershipAnswer> b = ClusterOf(v, run);
  if (!b.ok()) return b.status();
  SameClusterAnswer answer;
  answer.pivot_u = a->pivot;
  answer.pivot_v = b->pivot;
  answer.outcome = MergeOutcomes(a->outcome, b->outcome);
  answer.same = a->pivot == b->pivot;
  return answer;
}

Result<Clustering> LocalMembershipOracle::MaterializeLabels(
    const RunContext& run) const {
  Telemetry* telemetry = run.telemetry();
  InstrumentedSpan span(telemetry, "local.materialize");
  const std::size_t n = size();
  std::vector<Clustering::Label> labels(n, Clustering::kMissing);
  std::vector<Clustering::Label> label_of_pivot(n, Clustering::kMissing);
  Clustering::Label next = 0;
  for (std::size_t u = 0; u < n; ++u) {
    Result<MembershipAnswer> answer = ClusterOf(u, run);
    if (!answer.ok()) return answer.status();
    if (answer->outcome != RunOutcome::kConverged) {
      // Interrupted queries are fresh singletons — never shared, even
      // if the object later turns out to pivot for someone else; this
      // mirrors the singleton sweep of an interrupted global pass and
      // keeps the sweep a valid partition.
      labels[u] = next++;
      continue;
    }
    Clustering::Label& label = label_of_pivot[answer->pivot];
    if (label == Clustering::kMissing) label = next++;
    labels[u] = label;
  }
  // Labels are assigned in first-appearance object order already, so
  // the result is normalized by construction; Normalized() also heals
  // the interrupted-singleton case.
  return Clustering(std::move(labels)).Normalized();
}

}  // namespace clustagg
