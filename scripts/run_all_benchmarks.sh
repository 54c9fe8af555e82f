#!/usr/bin/env bash
# Regenerate every paper artifact. Chunked so partial results survive
# interruption; output accumulates in bench_output.txt. A failed target
# does not stop the run; the script exits non-zero at the end and names
# every target that failed.
set -u -o pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
: > bench_output.txt
failed=()
for target in \
    benchmarks/bench_fig9_lod_sizes.py \
    benchmarks/bench_fig11_decimation.py \
    benchmarks/bench_stats_compression.py \
    benchmarks/bench_ablation_quantization.py \
    benchmarks/bench_table2_cache.py \
    benchmarks/bench_fig12_pruning.py \
    benchmarks/bench_fig10_breakdown.py \
    benchmarks/bench_fig13_postgis.py \
    benchmarks/bench_ablation_lod_choice.py \
    benchmarks/bench_ablation_cache_size.py \
    benchmarks/bench_ablation_codec.py \
    benchmarks/bench_ablation_distortion.py \
    benchmarks/bench_ablation_knn.py \
    benchmarks/bench_table1.py; do
  echo "=== $target ===" | tee -a bench_output.txt
  if ! python3 -m pytest "$target" --benchmark-only -q -s 2>&1 | tee -a bench_output.txt; then
    failed+=("$target")
  fi
done
if ((${#failed[@]})); then
  echo "FAILED (${#failed[@]}): ${failed[*]}" | tee -a bench_output.txt >&2
  exit 1
fi
