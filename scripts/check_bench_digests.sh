#!/usr/bin/env bash
# Runs the repository benchmark binary briefly on every workload and seed
# as a correctness smoke test: each run must report `correct` (every
# replay matched the single-pump, per-tuple-batch reference) and a
# reference digest equal to the pinned one below, so a change to any
# workload's output rows fails here rather than in a benchmark run.
#
# Usage: scripts/check_bench_digests.sh PATH/TO/gs_perfbench
set -euo pipefail

BINARY="${1:?usage: $0 PATH/TO/gs_perfbench}"

# workload seed digest
PINNED="
flow_agg 1 193a1831810497f3
flow_agg 7919 aa00f0ae7dde3a2b
lfta_select 1 bb66941b28c895a6
lfta_select 7919 23e599e5058a0540
http_regex_threads 1 4a58c1b9b9d0c047
http_regex_threads 7919 27af47aa5c1ffc53
"

status=0
while read -r workload seed digest; do
  [[ -z "${workload}" ]] && continue
  result=$("${BINARY}" --workload="${workload}" --seed="${seed}" \
             --seconds=0.1 --trace=0 | tail -n 1)
  verdict=$(printf '%s' "${result}" | python3 -c '
import json, sys
run = json.load(sys.stdin)
print(run["correct"], run["reference_digest"])')
  if [[ "${verdict}" == "True ${digest}" ]]; then
    echo "ok   ${workload} seed ${seed}: ${digest}"
  else
    echo "FAIL ${workload} seed ${seed}: got '${verdict}'," \
         "want 'True ${digest}'"
    status=1
  fi
done <<< "${PINNED}"
exit "${status}"
