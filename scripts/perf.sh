#!/usr/bin/env bash
# Judge the speed of the committed HEAD against a base commit with the
# repository's benchmark (benchmark/README.md). CI runs exactly this.
#
#   scripts/perf.sh [WORKLOAD...]      # default: all six workloads
#
# The base is `git merge-base origin/main HEAD` on a pull request, else
# HEAD^. benchmark/ is built at both commits in worktrees under
# target/perf; each workload runs PAIRS alternating base/change pairs,
# and `compare` judges each pair. Fails if a run fails, a compare errors
# (exit 2), or compare reports a regression (exit 1: a WORSE metric or
# failed operations) in FAIL_PAIRS or more of a workload's pairs.
set -euo pipefail

PAIRS=3
FAIL_PAIRS=2
RUN_ARGS=(--seed 11 --seconds 5 --trace 0)
WORKLOADS=(sim-storm sim-powerllel sim-serve net-pingpong net-stream-small net-stream-large)
[ $# -gt 0 ] && WORKLOADS=("$@")

cd "$(git rev-parse --show-toplevel)"
if [ "${GITHUB_EVENT_NAME:-}" = pull_request ]; then
  base=$(git merge-base origin/main HEAD)
else
  base=$(git rev-parse HEAD^)
fi
work=$PWD/target/perf
rm -rf "$work" && git worktree prune
trap 'rm -rf "$work/base" "$work/change"; git worktree prune' EXIT
mkdir -p "$work/out"
for side in base change; do
  rev=$base
  [ $side = change ] && rev=HEAD
  echo "== $side: $(git log -1 --format='%h %s' "$rev")"
  git worktree add --quiet --detach "$work/$side" "$rev"
  cargo build --release --offline --quiet --manifest-path "$work/$side/benchmark/Cargo.toml"
done

# Each binary runs from its own checkout root.
bench() { (cd "$work/$1" && benchmark/target/release/unr-benchmark "${@:2}"); }
status=0
for w in "${WORKLOADS[@]}"; do
  worse=0
  for i in $(seq "$PAIRS"); do
    for side in base change; do
      out=$work/out/$w.$i.$side
      bench $side run --workload "$w" "${RUN_ARGS[@]}" --out "$out.json" > "$out.log" 2>&1 ||
        { cat "$out.log"; echo "error: $w pair $i: the $side run failed" >&2; exit 1; }
    done
    echo "== $w pair $i of $PAIRS"
    rc=0
    bench change compare "$work/out/$w.$i.base.json" "$work/out/$w.$i.change.json" || rc=$?
    [ $rc -le 1 ] || { echo "error: $w pair $i: compare failed" >&2; exit 1; }
    worse=$((worse + rc))
  done
  [ $worse -lt $FAIL_PAIRS ] || { echo "error: $w regressed in $worse of $PAIRS pairs" >&2; status=1; }
done
exit $status
