#!/usr/bin/env bash
# Unified sanitizer matrix leg: builds the repo twice
# (CLUSTAGG_SANITIZE=address, which is ASan plus UBSan with every
# undefined-behaviour report fatal, and =thread) and runs one
# `ctest -L` pass per label argument. `-L` matches a regex, so a single
# argument can cover several labels at once, and listing a label again
# on its own pins it against silently falling out of a combined pass.
# --no-tests=error keeps a labeling regression from passing a leg
# vacuously.
#
# The per-subsystem fast gates wired to every push:
#   ci/sanitize.sh 'stream|differential' differential   # streaming
#   ci/sanitize.sh shard                                # shard pipeline
#   ci/sanitize.sh durability                           # crash safety
#   ci/sanitize.sh 'backend|property'                   # packed kernel
#   ci/sanitize.sh local                                # membership oracle
#   ci/sanitize.sh fold                                 # fold, sampling, Aggregate
#   ci/sanitize.sh score                                # partition scores
#   ci/sanitize.sh rows                                 # row walks
#   ci/sanitize.sh telemetry                            # metric registry
#   ci/sanitize.sh smoke                                # CLI end to end
#
# The smoke leg drives the shipped `clustagg` binary through every CLI
# smoke script. The CLI is the only code that parses raw argv, so its
# flag table and strict number parsers run here on malformed input
# (unknown flags, missing values, trailing garbage) under both
# sanitizers.
#
# The packed-kernel leg runs the backend-equivalence and property
# suites. Their tier loops force swar and avx2 (where the CPU has it) in
# process and check each against float(PairwiseDistance) bit for bit,
# so every x86-64 build runs the AVX2 kernel under both sanitizers.
#
# The local leg runs the membership-oracle suites (labels `local` and
# `differential`): many threads share one oracle and race their first
# writes to its owner table while another thread clears it, so the TSan
# pass is what certifies the concurrent-query contract of
# docs/local_queries.md.
#
# The shard leg is the library's widest parallel surface (worker threads
# run whole Aggregate pipelines concurrently), so its TSan pass in
# particular must stay clean. The durability leg replays the kill-point
# crash matrix under both sanitizers: recovery code paths are exactly
# the ones that only run after something already went wrong, so they
# get the least organic coverage. The full suite still runs sanitized
# in the heavyweight job; these legs are the fast ones.
#
# The rows leg covers the one parallel loop and the row walks built on
# it: every whole-instance reduction and clusterer row scan shares
# per-thread scratch rows across the loop's workers, so its TSan pass
# certifies that each row's writes stay disjoint.
#
# The telemetry leg runs the registry suite: its counters, gauges and
# histograms take concurrent updates from the parallel row loops'
# workers, so the TSan pass certifies exact aggregation across threads.
#
# On top of the label legs, every invocation runs a fixed eviction pin
# (`ctest -R 'Window|Evict|Removal|window_smoke'`): the
# windowed-forgetting surface — FIFO eviction, removals, recovery of
# journals that carry removals — rebuilds the stream's label-column
# distance source and runs the parallel drift sweep on adds and
# removals alike, so it must stay clean under ASan and TSan no matter
# how a label regex above is narrowed.
#
# Usage: ci/sanitize.sh [-j jobs] LABEL_REGEX [LABEL_REGEX...]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc)"

while getopts 'j:' opt; do
  case "$opt" in
    j) JOBS="$OPTARG" ;;
    *) echo "usage: ci/sanitize.sh [-j jobs] LABEL_REGEX..." >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))

if [ "$#" -eq 0 ]; then
  echo "usage: ci/sanitize.sh [-j jobs] LABEL_REGEX..." >&2
  exit 2
fi

for SAN in address thread; do
  BUILD="$ROOT/build-sanitize-$SAN"
  echo "=== CLUSTAGG_SANITIZE=$SAN ==="
  cmake -B "$BUILD" -S "$ROOT" -DCLUSTAGG_SANITIZE="$SAN" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$BUILD" -j"$JOBS"
  for LABEL in "$@"; do
    (cd "$BUILD" && ctest -L "$LABEL" --no-tests=error \
         --output-on-failure -j"$JOBS")
  done
  (cd "$BUILD" && ctest -R 'Window|Evict|Removal|window_smoke' --no-tests=error \
       --output-on-failure -j"$JOBS")
done
echo "sanitize: all legs passed"
