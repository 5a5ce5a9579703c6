#!/usr/bin/env bash
# Smoke test of the campaign server's command line and its warm worker
# pool: start `repro serve start -j 2`, submit four radix campaigns
# (flip, condition, the flip spec again, and a stratified flip plan)
# sharded over the pool, check every fetched census against
# `repro inject -j 1`, drain, and check that the server exited and left
# no worker process behind.
#
# Run from the repository root.  With the package installed:
#
#     bash scripts/serve_cli_smoke.sh
#
# From a source checkout:
#
#     SERVE="python -m repro serve" MINIC="python -m repro" \
#         PYTHONPATH=src bash scripts/serve_cli_smoke.sh
set -euo pipefail

SERVE=${SERVE:-repro serve}
MINIC=${MINIC:-repro}
PORT=${PORT:-7231}
STORE=${STORE:-.serve-store}
OUT=${OUT:-.serve-smoke}

rm -rf "$STORE" "$OUT"
mkdir -p "$OUT"
$SERVE start --store "$STORE" -j 2 --port "$PORT" > "$OUT/server.log" 2>&1 &
server=$!
trap 'kill "$server" 2> /dev/null || true' EXIT

for _ in $(seq 100); do
    $SERVE status --port "$PORT" > /dev/null 2>&1 && break
    kill -0 "$server" || { cat "$OUT/server.log"; exit 1; }
    sleep 0.1
done

# The census `repro inject` prints, rendered from a fetched result.
render() {
    python - "$1" "$2" <<'EOF'
import json, sys
from repro.analysis import format_table
from repro.store.serialize import stats_from_dict
title, path = sys.argv[1], sys.argv[2]
stats = stats_from_dict(json.load(open(path))["stats"])
print(format_table(stats.SUMMARY_HEADERS, [stats.summary_row()],
                   title=title))
EOF
}

n=0
for campaign in "--fault flip" "--fault condition" "--fault flip" \
        "--fault flip --plan stratified"; do
    n=$((n + 1))
    # shellcheck disable=SC2206  # one word per flag and value
    args=(kernel:radix -t 4 -n 12 --seed 2012 $campaign)
    $SERVE submit "${args[@]}" --port "$PORT" --wait -j 2 \
        | tee "$OUT/submit-$n.out"
    job=$(awk '/^submitted/ {print $2}' "$OUT/submit-$n.out")
    $SERVE fetch "$job" --port "$PORT" -o "$OUT/result-$n.json"
    $MINIC inject "${args[@]}" -j 1 > "$OUT/inject-$n.full"
    # Title, header, rule and the campaign's row.
    head -n 4 "$OUT/inject-$n.full" > "$OUT/inject-$n.out"
    render "$(head -n 1 "$OUT/inject-$n.out")" "$OUT/result-$n.json" \
        > "$OUT/served-$n.out"
    diff "$OUT/inject-$n.out" "$OUT/served-$n.out"
done

workers=$(pgrep -P "$server" || true)
echo "pool workers: $(echo $workers)"
test "$(echo "$workers" | grep -c .)" -eq 2

$SERVE drain --port "$PORT"
for _ in $(seq 300); do
    kill -0 "$server" 2> /dev/null || break
    sleep 0.1
done
if kill -0 "$server" 2> /dev/null; then
    echo "server still running after drain" >&2
    exit 1
fi
wait "$server" || true
for pid in $workers; do
    if kill -0 "$pid" 2> /dev/null; then
        echo "worker $pid outlived the server" >&2
        exit 1
    fi
done
echo "serve CLI smoke: 4 campaigns match -j 1, server and pool gone"
