#ifndef CLUSTAGG_COMMON_PARALLEL_H_
#define CLUSTAGG_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "common/run_context.h"
#include "common/telemetry.h"

namespace clustagg {

/// Resolves a user-facing thread-count knob: 0 means one thread per
/// hardware core (at least 1).
inline std::size_t ResolveThreadCount(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// Thread count actually worth using for `rows` units of row-sized work.
/// Small inputs stay serial so that hot per-candidate loops (n in the
/// tens) never pay thread-spawn latency.
inline std::size_t EffectiveRowThreads(std::size_t rows,
                                       std::size_t resolved) {
  constexpr std::size_t kMinRowsForThreads = 128;
  if (rows < kMinRowsForThreads) return 1;
  return std::min(resolved == 0 ? std::size_t{1} : resolved, rows);
}

namespace internal {

/// Per-worker telemetry handles for the parallel row loops: each thread
/// owns its own counters (no contention, and the "per-thread" split is
/// visible in reports), while the row-block latency histogram is shared
/// (bucket increments are atomic and order-independent).
struct RowLoopRecorder {
  Telemetry* telemetry = nullptr;
  Counter* rows = nullptr;
  Counter* busy_nanos = nullptr;
  Histogram* block_nanos = nullptr;

  RowLoopRecorder(Telemetry* t, std::size_t thread_id) : telemetry(t) {
    if (telemetry == nullptr) return;
    const std::string prefix =
        "parallel.thread" + std::to_string(thread_id);
    rows = telemetry->counter(prefix + ".rows");
    busy_nanos = telemetry->counter(prefix + ".busy_nanos");
    block_nanos = telemetry->histogram("parallel.row_block_nanos");
  }

  std::uint64_t Start() const {
    return telemetry == nullptr ? 0 : telemetry->clock().NowNanos();
  }
  void Block(std::uint64_t start, std::size_t block_rows) const {
    if (telemetry == nullptr) return;
    const std::uint64_t elapsed = telemetry->clock().NowNanos() - start;
    rows->Add(block_rows);
    busy_nanos->Add(elapsed);
    block_nanos->Observe(elapsed);
  }
};

}  // namespace internal

/// Runs fn(row, thread_id) for every row in [0, rows). Rows are handed
/// out dynamically in chunks (row work shrinks along a packed triangle),
/// so the schedule is load-balanced. Callers must keep fn's writes
/// disjoint per row; results are then independent of the schedule, which
/// is what makes every parallel reduction in the library deterministic
/// across thread counts. Serial (thread_id 0) when num_threads <= 1.
///
/// The loop polls `run` once per claimed chunk (serial mode: every chunk
/// of 16 rows) and stops handing out rows when it fires. Each processed
/// row charges one work unit against the run's iteration budget. Returns
/// true when every row was processed, false when the loop was
/// interrupted — interrupted results are *partial* and the caller must
/// either discard them or fall back to a degraded answer. An unlimited
/// run (RunContext()) polls a null pointer and always returns true.
///
/// When the run carries a Telemetry sink, each worker records the rows
/// it processed and its busy time (`parallel.threadK.rows` /
/// `.busy_nanos` counters) plus the shared per-block latency histogram
/// `parallel.row_block_nanos`.
template <typename Fn>
bool ParallelForRows(std::size_t rows, std::size_t num_threads,
                     const RunContext& run, Fn&& fn) {
  Telemetry* telemetry = run.telemetry();
  if (rows == 0) return true;
  if (num_threads > rows) num_threads = rows;
  if (num_threads <= 1) {
    const internal::RowLoopRecorder recorder(telemetry, 0);
    for (std::size_t u = 0; u < rows;) {
      const std::size_t block = std::min<std::size_t>(16, rows - u);
      run.ChargeIterations(block);
      if (run.ShouldStop()) return false;
      const std::uint64_t t0 = recorder.Start();
      for (const std::size_t end = u + block; u < end; ++u) {
        fn(u, std::size_t{0});
      }
      recorder.Block(t0, block);
    }
    return true;
  }
  std::atomic<bool> stopped{false};
  std::atomic<std::size_t> next{0};
  const std::size_t chunk =
      std::max<std::size_t>(1, rows / (num_threads * 8));
  auto worker = [&](std::size_t thread_id) {
    const internal::RowLoopRecorder recorder(telemetry, thread_id);
    for (;;) {
      if (run.ShouldStop()) {
        stopped.store(true, std::memory_order_relaxed);
        return;
      }
      const std::size_t begin = next.fetch_add(chunk);
      if (begin >= rows) return;
      const std::size_t end = std::min(rows, begin + chunk);
      run.ChargeIterations(end - begin);
      const std::uint64_t t0 = recorder.Start();
      for (std::size_t u = begin; u < end; ++u) fn(u, thread_id);
      recorder.Block(t0, end - begin);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(num_threads - 1);
  for (std::size_t t = 1; t < num_threads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (std::thread& t : pool) t.join();
  return !stopped.load(std::memory_order_relaxed);
}

}  // namespace clustagg

#endif  // CLUSTAGG_COMMON_PARALLEL_H_
