#!/bin/sh
# Regression gate: the end-to-end benchmark on BASE and on this tree.
#
#     sh .github/bench-gate.sh BASE
#
# BASE is any commit (CI passes the pull request's merge-base, or HEAD^
# on a push).  The script checks BASE out into a temporary git worktree
# and copies this tree's benchmarks/e2e/ and BENCHMARK.json over the
# worktree's copies, so both sides run identical benchmark code and only
# src/ differs.  It byte-compiles both trees' src/, so neither side times
# compiling its modules.  For seeds 0-9 it runs benchmarks/e2e/run.py
# once on each side, alternating which side goes first, then exits with the
# code of `run.py compare`: 1 when a metric reads `worse` or a change
# run `failed`, 0 otherwise.  A run that crashes stops the gate with its
# exit code.  Both reports (parent.json, change.json) and the compare
# table (compare.txt) are left in bench-gate/ at the root of this tree;
# the worktree is removed on exit.  One pair took 65-80 s on a 2-vCPU
# machine, so the gate takes 11-13 minutes.
set -eu

PAIRS=10

if [ "$#" -ne 1 ]; then
    echo "usage: $0 BASE" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify "$1^{commit}")
out="$root/bench-gate"
work=$(mktemp -d)
parent="$work/parent"

cleanup() {
    git -C "$root" worktree remove --force "$parent" 2>/dev/null || true
    rm -rf "$work" || true
    git -C "$root" worktree prune || true
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

git -C "$root" worktree add --detach --quiet "$parent" "$base"
rm -rf "$parent/benchmarks/e2e"
cp -R "$root/benchmarks/e2e" "$parent/benchmarks/e2e"
cp "$root/BENCHMARK.json" "$parent/BENCHMARK.json"
# Byte-compile both sides: under PYTHONDONTWRITEBYTECODE=1 a tree without
# up-to-date bytecode compiles its modules in every timed process.
python3 -m compileall -q "$parent/src" "$root/src"

rm -rf "$out"
mkdir -p "$out"
echo "bench gate: parent $(git -C "$root" rev-parse --short "$base")," \
    "change the working tree at $(git -C "$root" rev-parse --short HEAD)," \
    "$PAIRS pairs"
seed=0
while [ "$seed" -lt "$PAIRS" ]; do
    if [ $((seed % 2)) -eq 0 ]; then
        order="parent change"
    else
        order="change parent"
    fi
    for side in $order; do
        if [ "$side" = parent ]; then
            tree="$parent"
        else
            tree="$root"
        fi
        echo "== seed $seed: $side"
        python3 "$tree/benchmarks/e2e/run.py" --seed "$seed" \
            --out "$out/$side.json"
    done
    seed=$((seed + 1))
done

status=0
python3 "$root/benchmarks/e2e/run.py" compare "$out/parent.json" \
    "$out/change.json" > "$out/compare.txt" || status=$?
cat "$out/compare.txt"
exit "$status"
