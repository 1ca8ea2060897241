#include "shard/decompose.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/union_find.h"

namespace clustagg {

namespace {

/// Per-shard size cap in decomposition nodes for this plan.
std::size_t PlanCapacity(std::size_t num_nodes, const ShardOptions& options) {
  if (options.mode == ShardingMode::kFixed) {
    const std::size_t shards = std::max<std::size_t>(1, options.num_shards);
    return std::max<std::size_t>(1, (num_nodes + shards - 1) / shards);
  }
  return std::max<std::size_t>(1, options.max_shard_size);
}

/// Splits one oversized component into balanced parts: nodes are visited
/// in BFS order over the component's agreement edges (starting from its
/// smallest node, neighbors in ascending id, so the order is
/// deterministic) and the order is chopped into consecutive chunks of
/// ceil(|C| / p) nodes. BFS locality keeps most agreement edges inside a
/// chunk, which is what the cut bound pays for. Returns the part lists.
Result<std::vector<std::vector<std::size_t>>> SplitComponent(
    const DistanceSource& source, const std::vector<std::size_t>& members,
    std::size_t capacity, std::vector<char>& agree_buf,
    const RunContext& run) {
  const std::size_t size = members.size();
  const std::size_t parts = (size + capacity - 1) / capacity;
  const std::size_t part_cap = (size + parts - 1) / parts;

  std::vector<std::size_t> order;
  order.reserve(size);
  std::vector<char> visited(size, 0);
  for (std::size_t seed = 0; seed < size; ++seed) {
    // The component is connected, so the first seed reaches everything;
    // the outer loop is defensive.
    if (visited[seed]) continue;
    visited[seed] = 1;
    order.push_back(members[seed]);
    for (std::size_t head = order.size() - 1; head < order.size(); ++head) {
      if (head % 16 == 15 && run.ShouldStop()) {
        return run.StopStatus(run.Poll());
      }
      source.AgreementRow(order[head], agree_buf);
      for (std::size_t i = 0; i < size; ++i) {
        const std::size_t v = members[i];
        if (!visited[i] && agree_buf[v]) {
          visited[i] = 1;
          order.push_back(v);
        }
      }
    }
  }
  CLUSTAGG_CHECK(order.size() == size);

  std::vector<std::vector<std::size_t>> out;
  out.reserve(parts);
  for (std::size_t begin = 0; begin < size; begin += part_cap) {
    const std::size_t end = std::min(size, begin + part_cap);
    std::vector<std::size_t> part(order.begin() +
                                      static_cast<std::ptrdiff_t>(begin),
                                  order.begin() +
                                      static_cast<std::ptrdiff_t>(end));
    std::sort(part.begin(), part.end());
    out.push_back(std::move(part));
  }
  return out;
}

}  // namespace

Result<ShardPlan> DecomposeAgreementGraph(
    const DistanceSource& source, const std::vector<double>& multiplicities,
    const ShardOptions& options, std::size_t num_threads,
    const RunContext& run) {
  const std::size_t n = source.size();
  CLUSTAGG_CHECK(multiplicities.empty() || multiplicities.size() == n);
  ShardPlan plan;
  plan.num_nodes = n;
  if (n == 0) return plan;

  // Phase 1: stream the agreement graph and union endpoints. Each worker
  // owns a private forest; merging them afterwards reproduces the same
  // components whatever the schedule, so the plan is thread-count
  // independent. The scan asks only X_uv < 1/2, so it goes through
  // AgreementRow: under the packed label kernel each row is answered
  // with an integer mismatch-count threshold per pair, never
  // materializing distances.
  const std::size_t threads =
      EffectiveRowThreads(n, ResolveThreadCount(num_threads));
  std::vector<UnionFind> forests(threads, UnionFind(n));
  std::vector<std::vector<char>> rows(threads, std::vector<char>(n));
  const bool scanned = ParallelForRows(
      n, threads, run, [&](std::size_t u, std::size_t tid) {
        std::vector<char>& agree = rows[tid];
        source.AgreementRow(u, agree);
        UnionFind& forest = forests[tid];
        for (std::size_t v = u + 1; v < n; ++v) {
          if (agree[v]) forest.Union(u, v);
        }
      });
  if (!scanned) return run.InterruptStatus();
  UnionFind components(n);
  for (UnionFind& forest : forests) {
    for (std::size_t v = 0; v < n; ++v) components.Union(v, forest.Find(v));
  }
  plan.component_of = components.ComponentLabels();
  std::int32_t max_label = -1;
  for (std::int32_t label : plan.component_of) {
    max_label = std::max(max_label, label);
  }
  plan.num_components = static_cast<std::size_t>(max_label + 1);

  std::vector<std::vector<std::size_t>> members(plan.num_components);
  for (std::size_t v = 0; v < n; ++v) {
    members[static_cast<std::size_t>(plan.component_of[v])].push_back(v);
  }

  // Phase 2: split components above the cap and charge the cut edges.
  // The BFS split only needs agreement bits; the cut accounting below
  // still reads exact X values through FillRow.
  const std::size_t capacity = PlanCapacity(n, options);
  std::vector<std::vector<std::size_t>> units;
  std::vector<char>& agree_buf = rows[0];
  std::vector<double> row_buf(n);
  std::vector<std::size_t> part_of(n, 0);
  for (std::vector<std::size_t>& component : members) {
    if (component.size() <= capacity) {
      units.push_back(std::move(component));
      continue;
    }
    Result<std::vector<std::vector<std::size_t>>> parts = SplitComponent(
        source, component, capacity, agree_buf, run);
    if (!parts.ok()) return parts.status();
    ++plan.split_components;
    for (std::size_t p = 0; p < parts->size(); ++p) {
      for (std::size_t v : (*parts)[p]) part_of[v] = p;
    }
    // Exact cut accounting: every within-component agreement pair now
    // separated by the split pays (1 - X) instead of its unavoidable
    // min(X, 1 - X) = X, an excess of exactly (1 - 2 X) per original
    // pair — w_u * w_v of them under folding.
    for (std::size_t i = 0; i < component.size(); ++i) {
      if (i % 16 == 15 && run.ShouldStop()) {
        return run.StopStatus(run.Poll());
      }
      const std::size_t u = component[i];
      source.FillRow(u, row_buf);
      const double wu =
          multiplicities.empty() ? 1.0 : multiplicities[u];
      for (std::size_t j = i + 1; j < component.size(); ++j) {
        const std::size_t v = component[j];
        if (part_of[u] == part_of[v]) continue;
        const double x = row_buf[v];
        if (x >= 0.5) continue;
        const double wv =
            multiplicities.empty() ? 1.0 : multiplicities[v];
        ++plan.cut_edges;
        plan.stitch_error_bound += wu * wv * (1.0 - 2.0 * x);
      }
    }
    for (std::vector<std::size_t>& part : *parts) {
      units.push_back(std::move(part));
    }
  }

  // Phase 3: pack units toward the cap with first-fit decreasing so a sea
  // of tiny components does not become a sea of tiny shards. Packing only
  // co-locates nodes, never separates them, so it cuts nothing.
  std::vector<std::size_t> by_size(units.size());
  std::iota(by_size.begin(), by_size.end(), std::size_t{0});
  std::sort(by_size.begin(), by_size.end(), [&](std::size_t a, std::size_t b) {
    if (units[a].size() != units[b].size()) {
      return units[a].size() > units[b].size();
    }
    return units[a].front() < units[b].front();
  });
  std::vector<std::vector<std::size_t>> bins;
  std::vector<std::size_t> bin_sizes;
  for (std::size_t idx : by_size) {
    std::vector<std::size_t>& unit = units[idx];
    std::size_t target = bins.size();
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (bin_sizes[b] + unit.size() <= capacity) {
        target = b;
        break;
      }
    }
    if (target == bins.size()) {
      bins.emplace_back();
      bin_sizes.push_back(0);
    }
    bin_sizes[target] += unit.size();
    bins[target].insert(bins[target].end(), unit.begin(), unit.end());
  }
  for (std::vector<std::size_t>& bin : bins) {
    std::sort(bin.begin(), bin.end());
  }
  std::sort(bins.begin(), bins.end(),
            [](const std::vector<std::size_t>& a,
               const std::vector<std::size_t>& b) {
              return a.front() < b.front();
            });
  plan.shard_of.assign(n, 0);
  for (std::size_t s = 0; s < bins.size(); ++s) {
    for (std::size_t v : bins[s]) plan.shard_of[v] = s;
  }
  plan.shards = std::move(bins);
  return plan;
}

}  // namespace clustagg
