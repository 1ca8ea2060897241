// local-queries: serving-style point queries against one shared
// LocalMembershipOracle (the pivot-based local clustering of the
// correlation-clustering survey). Planted input n = 10^5, m = 8, k = 20,
// 10% label noise; a closed loop of min(4, CPUs) client threads, each
// issuing its queries back to back: 90% ClusterOf on Zipf(1)-skewed ids
// and 10% SameCluster(Zipf id, uniform id). Hot and cold ids in one mix
// use the shared locked memo both ways. One op is one query; a rep is
// every client's list (62.5K queries each) against a fresh oracle.
//
// Every rep draws its own pivot permutation. The work of a ClusterOf
// walk depends on where each planted cluster's first member falls in
// the permutation: from seed to seed the distance queries per ClusterOf
// range over about 2x (32 to 68), and the throughput with them. A run
// therefore spreads its queries over many short reps, each with a
// different permutation, and reports medians over the reps.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <latch>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"

namespace e2e {

using namespace clustagg;

namespace {

struct LocalShape {
  std::size_t n;
  std::size_t queries_per_client;
  std::size_t m = 8;
  std::size_t k = 20;
  double noise = 0.10;
};

LocalShape Shape(const Args& args) {
  if (args.smoke) return {.n = 5000, .queries_per_client = 3125};
  return {.n = 100000, .queries_per_client = 62500};
}

/// Queries per client checked against a serial oracle after each rep.
constexpr std::size_t kVerifiedPerClient = 5000;

/// Pivot-permutation seed of rep `rep`; rep 0 uses the run's seed.
std::uint64_t RepSeed(std::uint64_t seed, std::size_t rep) {
  return seed + 0x9e3779b97f4a7c15ull * rep;
}

struct Query {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  bool same_cluster = false;  // SameCluster(u, v), else ClusterOf(u)
};

/// What a query answered: ClusterOf's pivot in `a`; SameCluster's two
/// pivots in `a` and `b` plus its verdict.
struct Answer {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  bool same = false;
};

/// Per-client tallies of the ClusterOf answers' work counters.
struct ClientStats {
  std::vector<float> latency_ns;
  std::vector<Answer> answers;
  std::uint64_t cluster_of = 0;
  std::uint64_t distance_queries = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t inspections = 0;
  std::vector<double> chain_depths;
  std::uint64_t failed = 0;
};

Answer Ask(const LocalMembershipOracle& oracle, const Query& q,
           ClientStats* stats) {
  Answer answer;
  if (q.same_cluster) {
    Result<SameClusterAnswer> r = oracle.SameCluster(q.u, q.v);
    if (!r.ok() || r->outcome != RunOutcome::kConverged) {
      ++stats->failed;
      return answer;
    }
    answer.a = static_cast<std::uint32_t>(r->pivot_u);
    answer.b = static_cast<std::uint32_t>(r->pivot_v);
    answer.same = r->same;
    return answer;
  }
  Result<MembershipAnswer> r = oracle.ClusterOf(q.u);
  if (!r.ok() || r->outcome != RunOutcome::kConverged) {
    ++stats->failed;
    return answer;
  }
  answer.a = static_cast<std::uint32_t>(r->pivot);
  ++stats->cluster_of;
  stats->distance_queries += r->distance_queries;
  stats->memo_hits += r->memo_hits;
  stats->inspections += r->pivot_inspections;
  stats->chain_depths.push_back(static_cast<double>(r->chain_depth));
  return answer;
}

struct Rep {
  double wall_s = 0.0;
  std::vector<ClientStats> clients;
  std::uint64_t queries = 0;
};

/// A closed loop: each client sends its next query when the previous one
/// returns. Every query is timed; clients start together.
Rep RunClients(const LocalMembershipOracle& oracle,
               const std::vector<std::vector<Query>>& lists) {
  Rep rep;
  rep.clients.resize(lists.size());
  std::latch start(static_cast<std::ptrdiff_t>(lists.size()) + 1);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < lists.size(); ++c) {
    threads.emplace_back([&, c] {
      ClientStats& stats = rep.clients[c];
      stats.latency_ns.reserve(lists[c].size());
      stats.answers.reserve(lists[c].size());
      start.arrive_and_wait();
      for (const Query& q : lists[c]) {
        const auto t0 = Clock::now();
        stats.answers.push_back(Ask(oracle, q, &stats));
        stats.latency_ns.push_back(static_cast<float>(
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count()));
      }
    });
  }
  const auto t0 = Clock::now();
  start.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  rep.wall_s = SecondsSince(t0);
  for (const std::vector<Query>& list : lists) rep.queries += list.size();
  return rep;
}

LocalMembershipOracle MakeOracle(const ClusteringSet& input,
                                 std::uint64_t seed) {
  LocalOracleOptions options;
  options.seed = seed;
  Result<LocalMembershipOracle> oracle =
      LocalMembershipOracle::FromClusterings(input, {}, options);
  CLUSTAGG_CHECK_OK(oracle.status());
  return std::move(oracle).value();
}

/// Zipf(1) over object ids: rank r has weight 1 / (r + 1), and ranks map
/// to ids through a seeded permutation so hot ids are spread over the
/// planted clusters.
class ZipfIds {
 public:
  ZipfIds(std::size_t n, Rng* rng) : ids_(rng->Permutation(n)), cdf_(n) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_[r] = total;
    }
  }
  std::uint32_t Next(Rng* rng) const {
    const double x = rng->NextDouble() * cdf_.back();
    const std::size_t r = static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), x) - cdf_.begin());
    return static_cast<std::uint32_t>(ids_[std::min(r, ids_.size() - 1)]);
  }

 private:
  std::vector<std::size_t> ids_;
  std::vector<double> cdf_;
};

std::vector<std::vector<Query>> MakeQueryLists(const LocalShape& shape,
                                               std::size_t clients,
                                               std::uint64_t seed) {
  Rng rng(seed ^ 0x5eedfacecafef00dull);
  const ZipfIds zipf(shape.n, &rng);
  std::vector<std::vector<Query>> lists(clients);
  for (std::vector<Query>& list : lists) {
    list.resize(shape.queries_per_client);
    for (Query& q : list) {
      q.u = zipf.Next(&rng);
      q.same_cluster = rng.NextBernoulli(0.1);
      if (q.same_cluster) {
        q.v = static_cast<std::uint32_t>(rng.NextBounded(shape.n));
      }
    }
  }
  return lists;
}

}  // namespace

/// m noisy views of k planted clusters: each clustering starts from the
/// planted labels (v mod k) and reassigns a `noise` fraction of objects
/// uniformly.
ClusteringSet LocalInput(const Args& args) {
  const LocalShape shape = Shape(args);
  Rng rng(args.seed);
  std::vector<Clustering> inputs;
  for (std::size_t c = 0; c < shape.m; ++c) {
    std::vector<Clustering::Label> labels(shape.n);
    for (std::size_t v = 0; v < shape.n; ++v) {
      labels[v] = static_cast<Clustering::Label>(v % shape.k);
    }
    const std::size_t flips =
        static_cast<std::size_t>(shape.noise * static_cast<double>(shape.n));
    for (std::size_t i = 0; i < flips; ++i) {
      labels[rng.NextBounded(shape.n)] =
          static_cast<Clustering::Label>(rng.NextBounded(shape.k));
    }
    inputs.emplace_back(std::move(labels));
  }
  Result<ClusteringSet> set = ClusteringSet::Create(std::move(inputs));
  CLUSTAGG_CHECK_OK(set.status());
  return std::move(set).value();
}

namespace {

struct Setup {
  ClusteringSet input;
  std::vector<std::vector<Query>> lists;
  LocalMembershipOracle oracle;
  double create_s = 0.0;
};

/// Per-rep summary; a rep's raw samples are dropped once summarized, so
/// peak memory does not grow with the number of reps a run fits in.
struct RepSummary {
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double qps = 0.0;
  double distance_queries_per_query = 0.0;
  double memo_hit_ratio = 0.0;
  double chain_depth_p99 = 0.0;
};

RepSummary Summarize(Context& ctx, const Rep& rep) {
  ctx.checks.Ops(rep.queries);
  std::vector<double> latencies, depths;
  std::uint64_t cluster_of = 0, distance_queries = 0, hits = 0,
                inspections = 0;
  for (const ClientStats& c : rep.clients) {
    for (std::uint64_t i = 0; i < c.failed; ++i) ctx.checks.Op(false, "query");
    latencies.insert(latencies.end(), c.latency_ns.begin(),
                     c.latency_ns.end());
    depths.insert(depths.end(), c.chain_depths.begin(), c.chain_depths.end());
    cluster_of += c.cluster_of;
    distance_queries += c.distance_queries;
    hits += c.memo_hits;
    inspections += c.inspections;
  }
  RepSummary summary;
  summary.p50_ns = Median(latencies);
  summary.p99_ns = Percentile(latencies, 0.99);
  summary.qps = static_cast<double>(rep.queries) / rep.wall_s;
  summary.distance_queries_per_query =
      static_cast<double>(distance_queries) / static_cast<double>(cluster_of);
  summary.memo_hit_ratio =
      static_cast<double>(hits) / static_cast<double>(hits + inspections);
  summary.chain_depth_p99 = Percentile(std::move(depths), 0.99);
  std::fprintf(stderr,
               "  rep: %.0f q/s, p50 %.0f ns, p99 %.0f ns, %.1f distance "
               "queries per ClusterOf\n",
               summary.qps, summary.p50_ns, summary.p99_ns,
               summary.distance_queries_per_query);
  return summary;
}

/// The first queries of every client against a serial oracle on the same
/// permutation: the concurrent answers must equal the serial ones, and
/// each SameCluster must agree with the two ClusterOf pivots.
void VerifyRep(Context& ctx, const Setup& setup, const Rep& rep,
               std::uint64_t seed) {
  const LocalMembershipOracle serial = MakeOracle(setup.input, seed);
  for (std::size_t c = 0; c < setup.lists.size(); ++c) {
    const std::size_t verified =
        std::min(kVerifiedPerClient, setup.lists[c].size());
    bool ok = true;
    for (std::size_t i = 0; i < verified && ok; ++i) {
      const Query& q = setup.lists[c][i];
      const Answer& got = rep.clients[c].answers[i];
      Result<MembershipAnswer> pu = serial.ClusterOf(q.u);
      ok = pu.ok() && pu->pivot == got.a;
      if (ok && q.same_cluster) {
        Result<MembershipAnswer> pv = serial.ClusterOf(q.v);
        ok = pv.ok() && pv->pivot == got.b && got.same == (got.a == got.b);
      }
    }
    ctx.checks.Expect(ok, "client " + std::to_string(c) +
                              " answers differ from serial answers");
  }
}

template <typename Field>
double MedianOver(const std::vector<RepSummary>& summaries, Field field) {
  std::vector<double> values;
  for (const RepSummary& s : summaries) values.push_back(s.*field);
  return Median(std::move(values));
}

}  // namespace

void RunLocalQueries(Context& ctx) {
  const LocalShape shape = Shape(ctx.args);
  const std::size_t clients = ctx.args.threads;
  const auto make_oracle = [&](const ClusteringSet& input, std::size_t rep,
                               double* seconds) {
    Span span(ctx.tracer, "oracle.create");
    const auto start = Clock::now();
    LocalMembershipOracle oracle =
        MakeOracle(input, RepSeed(ctx.args.seed, rep));
    *seconds = SecondsSince(start);
    return oracle;
  };
  // Set-up: inputs, every client's query list, and rep 0's lazy oracle.
  Setup setup = TimedSetup(ctx, [&] {
    ClusteringSet input = LocalInput(ctx.args);
    double create_s = 0.0;
    LocalMembershipOracle oracle = make_oracle(input, 0, &create_s);
    return Setup{std::move(input),
                 MakeQueryLists(shape, clients, ctx.args.seed),
                 std::move(oracle), create_s};
  });
  std::vector<double> create_s = {setup.create_s};

  // Every rep runs against a fresh oracle on its own permutation, so
  // every rep starts from a cold memo. The first rep run is rep 0, on
  // the set-up's oracle.
  bool setup_oracle_used = false;
  const auto run_rep = [&](std::size_t index) {
    Span rep_span(ctx.tracer, "rep");
    if (std::exchange(setup_oracle_used, true)) {
      create_s.emplace_back();
      setup.oracle = make_oracle(setup.input, index, &create_s.back());
    }
    Span span(ctx.tracer, "queries");
    return RunClients(setup.oracle, setup.lists);
  };

  std::size_t next_rep = 0;
  if (ctx.tracer != nullptr) {  // warm-up
    UntracedSeconds(ctx, [&] { Summarize(ctx, run_rep(next_rep++)); });
  }
  const std::size_t first_rep = next_rep;
  std::vector<RepSummary> summaries;
  std::vector<double> rep_s;
  const auto loop_start = Clock::now();
  while (KeepGoing(ctx, loop_start, summaries.size())) {
    const std::size_t index = next_rep++;
    const auto start = Clock::now();
    const Rep rep = run_rep(index);
    rep_s.push_back(SecondsSince(start));
    Span span(ctx.tracer, "check");
    summaries.push_back(Summarize(ctx, rep));
    VerifyRep(ctx, setup, rep, RepSeed(ctx.args.seed, index));
  }
  if (ctx.tracer != nullptr) {
    const auto loop_end = Clock::now();
    // The first traced rep's permutation again, untraced.
    Rep reference;
    const double reference_s =
        UntracedSeconds(ctx, [&] { reference = run_rep(first_rep); });
    Summarize(ctx, reference);
    SetTraceMetrics(ctx, loop_start, loop_end, rep_s.size(), rep_s[0],
                    reference_s);
  }

  // Quality on a uniform sample of objects: the cost of the run seed's
  // clustering restricted to the sample, against the sample's bound.
  const LocalMembershipOracle serial = MakeOracle(setup.input, ctx.args.seed);
  Rng rng(ctx.args.seed + 1);
  std::vector<std::size_t> sample = rng.SampleWithoutReplacement(
      shape.n, std::min<std::size_t>(5000, shape.n));
  std::sort(sample.begin(), sample.end());
  std::vector<Clustering::Label> pivots;
  for (std::size_t v : sample) {
    pivots.push_back(
        static_cast<Clustering::Label>(serial.ClusterOf(v)->pivot));
  }
  Result<CorrelationInstance> sub = CorrelationInstance::BuildSubset(
      setup.input, sample, {},
      DistanceSourceOptions{DistanceBackend::kLazy, ctx.args.threads, {}});
  CLUSTAGG_CHECK_OK(sub.status());
  const double cost = sub->Cost(Clustering(std::move(pivots))).value();
  const double lower_bound = sub->LowerBound();
  ctx.checks.Expect(cost >= lower_bound, "cost below the lower bound");

  if (ctx.tracer == nullptr) {
    ctx.metrics.Set("latency_p50_ms",
                    1e-6 * MedianOver(summaries, &RepSummary::p50_ns));
    ctx.metrics.Set("throughput_per_s",
                    MedianOver(summaries, &RepSummary::qps));
    ctx.metrics.Set("cost_ratio", cost / lower_bound);
    return;
  }

  ctx.metrics.Set("local.create_s", Median(create_s));
  ctx.metrics.Set(
      "local.distance_queries_per_query",
      MedianOver(summaries, &RepSummary::distance_queries_per_query));
  ctx.metrics.Set("local.chain_depth_p99",
                  MedianOver(summaries, &RepSummary::chain_depth_p99));
  ctx.metrics.Set("local.memo_hit_ratio",
                  MedianOver(summaries, &RepSummary::memo_hit_ratio));
  ctx.metrics.Set("local.query_p99_us",
                  1e-3 * MedianOver(summaries, &RepSummary::p99_ns));

  // The same queries from one client on the first traced rep's
  // permutation: what sharing the memo lock costs.
  std::vector<std::vector<Query>> one(1);
  for (const std::vector<Query>& list : setup.lists) {
    one[0].insert(one[0].end(), list.begin(), list.end());
  }
  const Rep single = RunClients(
      MakeOracle(setup.input, RepSeed(ctx.args.seed, first_rep)), one);
  ctx.checks.Ops(single.queries);
  const double qps_1 = static_cast<double>(single.queries) / single.wall_s;
  ctx.metrics.Set("local.qps_1client", qps_1);
  ctx.metrics.Set("local.client_scaling", summaries[0].qps / qps_1);
}

}  // namespace e2e
