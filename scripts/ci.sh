#!/bin/sh
# CI entry point: the tier-1 gate (build, lint, test, race) followed by a
# short fuzz smoke of each fuzz target. Run from anywhere; everything is
# stdlib + the go toolchain.
set -eu

cd "$(dirname "$0")/.."

echo "==> tier1 (build, lint, test, race)"
make tier1

echo "==> lint gate (cold vs warm cache)"
# The lint suite must report zero findings, and the result cache must
# answer for an unchanged tree: time a cold run (cache wiped) and a warm
# one, and gate CI on the JSON output being the empty array both times.
# (`time` is a bash keyword, not a dash builtin, so measure with date.)
go build -o /tmp/graphnerlint-ci ./cmd/graphnerlint
elapsed_ms() {
    end=$(date +%s%N)
    echo "$(( (end - $1) / 1000000 ))"
}
# Exit 1 just means findings — defer to the JSON check below so the
# failure shows them; exit 2 (internal error) aborts immediately. Runs
# go through the lint ratchet (-baseline): the committed baseline is
# empty, so this is also the proof that the tree carries no waived debt.
lint_to() {
    rc=0
    /tmp/graphnerlint-ci -json -baseline lint-baseline.json ./... > "$1" || rc=$?
    [ "$rc" -le 1 ] || exit "$rc"
}
rm -rf .graphnerlint-cache
start=$(date +%s%N)
lint_to /tmp/lint-cold.json
echo "--- cold (cache wiped): $(elapsed_ms "$start") ms"
start=$(date +%s%N)
lint_to /tmp/lint-warm.json
echo "--- warm (cached):      $(elapsed_ms "$start") ms"
for f in /tmp/lint-cold.json /tmp/lint-warm.json; do
    if [ "$(cat "$f")" != "[]" ]; then
        echo "ci: lint findings in $f:" >&2
        cat "$f" >&2
        exit 1
    fi
done
# The ratchet must be at zero: -update-baseline on a clean tree rewrites
# the baseline as empty, so a non-empty committed file means someone
# waived findings instead of fixing them.
if [ "$(cat lint-baseline.json)" != "$(printf '{\n  "version": 1,\n  "findings": []\n}')" ]; then
    echo "ci: lint-baseline.json is not empty — pay down the waived findings" >&2
    cat lint-baseline.json >&2
    exit 1
fi
rm -f /tmp/graphnerlint-ci /tmp/lint-cold.json /tmp/lint-warm.json

echo "==> fuzz smoke"
make fuzz-smoke

echo "==> bench smoke"
make bench-smoke

echo "==> bench serving smoke"
make bench-serving-smoke

echo "==> bench e2e smoke"
make bench-e2e-smoke

echo "==> ci OK"
