#!/usr/bin/env sh
# Build everything, run the full test suite, and regenerate every
# paper figure into ./results/.
set -eu

cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

# The figure, table and campaign binaries; each runs with its defaults
# and writes nothing but its own results/<name>.txt.
mkdir -p results
for name in fig01_active_threads fig03_utilization_example \
            fig05_inst_mix fig08a_switch_distance fig08b_raw_distance \
            fig09a_coverage fig09b_replayq_overhead \
            fig10_scheme_comparison fig11_power table1_rfu_priority \
            fault_campaign fault_rate_sweep fault_localization \
            ablation_dmr_modes shard_scaling; do
    echo "== $name =="
    "build/bench/$name" | tee "results/$name.txt"
done

# The coverage-table campaign (EXPERIMENTS.md "Reproducing the
# coverage table"): 10k sampled sites on MatrixMul(64), seed 42.
# About 0.2 s (0.15-0.21 s measured with a RelWithDebInfo build on a
# 4-vCPU host, --jobs 1 and 0); checkpointed, so an interrupted run
# resumes.
# Expected: coverage 96.67%, Wilson 95% CI [96.30, 97.00], 0 SDC/DUE.
echo "== campaign_matrixmul_10k =="
./build/examples/warped_sim campaign MatrixMul --size 64 \
    --sites 10000 --seed 42 --jobs 0 \
    --checkpoint results/campaign_matrixmul_10k.ckpt \
    --out results/campaign_matrixmul_10k.json \
    | tee results/campaign_matrixmul_10k.txt

echo "All figures regenerated under results/."
