#!/usr/bin/env bash
# Tracked counters: run the quick deterministic benches and write
# BENCH_pipeline.json and BENCH_cpu_aligners.json at the repo root.
#
#   tools/run_bench.sh [--quick] [--build-dir DIR] [--out-dir DIR]
#
# --quick is the default (and the mode CI runs); it selects each bench's
# fixed, seeded workload so the JSON is comparable across commits on the
# same machine. The JSON files are committed (see README "Performance").
# End-to-end, stage and server timings are not measured here: perfbench
# owns them, and tools/perf_record.py records its repeated runs in
# BENCH_perfbench.json.
set -euo pipefail

build_dir=build
out_dir=.
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) shift ;;  # default; accepted for symmetry with CI
    --build-dir) build_dir=$2; shift 2 ;;
    --out-dir) out_dir=$2; shift 2 ;;
    *) echo "usage: $0 [--quick] [--build-dir DIR] [--out-dir DIR]" >&2
       exit 2 ;;
  esac
done

repo_root=$(cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

for bench in bench_pipeline bench_cpu_aligners; do
  if [[ ! -x "$build_dir/bench/$bench" ]]; then
    echo "error: $build_dir/bench/$bench not built (configure with" \
         "-DGENASMX_BUILD_BENCH=ON and build first)" >&2
    exit 1
  fi
done

"$build_dir"/bench/bench_pipeline --quick \
  --json="$out_dir/BENCH_pipeline.json"
"$build_dir"/bench/bench_cpu_aligners --quick \
  --json="$out_dir/BENCH_cpu_aligners.json"

# Fail on malformed JSON so CI catches emitter regressions.
if command -v python3 >/dev/null 2>&1; then
  for f in "$out_dir"/BENCH_pipeline.json "$out_dir"/BENCH_cpu_aligners.json; do
    python3 -m json.tool "$f" >/dev/null
  done
  echo "JSON validated: BENCH_pipeline.json BENCH_cpu_aligners.json"
else
  echo "warning: python3 not found, skipping JSON validation" >&2
fi
