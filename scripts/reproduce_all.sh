#!/usr/bin/env bash
# Regenerate every table, figure, ablation and extension result of the
# UNR reproduction into results/. All numbers are virtual-time and
# bit-reproducible. Takes a few minutes on one core.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
BINS=(
  table1_support_levels table2_interfaces table3_platforms
  fig4_latency fig5_multinic fig6_powerllel fig7_scaling
  ablation_polling ablation_striping ablation_overlap ablation_mode2
  ext_collectives ext_packing
)
for b in "${BINS[@]}"; do
  echo "== $b"
  cargo run --release -q -p unr-bench --bin "$b" | tee "results/$b.txt"
done
echo "All outputs written to results/."
