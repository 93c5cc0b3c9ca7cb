#!/usr/bin/env bash
# Gate an end-to-end benchmark run on its host-independent counts:
#
#   bash bench/check_counts.sh RUN.json BASELINE.json [ALLOC_BOUND]
#
# RUN.json is what `bench/e2e/run.sh ... --json RUN.json` wrote.  For
# every workload it holds, wire_bytes_per_op and msgs_per_op must equal
# the baseline's medians exactly; with ALLOC_BOUND (a fraction, e.g.
# 0.05), alloc_words_per_op must lie within that fraction of the
# baseline's.  Allocation counts depend on the compiler version, so
# pass the bound only when the run used the baseline's OCaml.  Timings
# and setup_s move with the host and are not gated here.  Needs jq.
set -euo pipefail
if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 RUN.json BASELINE.json [ALLOC_BOUND]" >&2
  exit 2
fi
report=$(jq -r -n --slurpfile run "$1" --slurpfile base "$2" --arg bound "${3:-}" '
  # one line per gated metric; ok(f) sees [run median, baseline median]
  def check($w; $m; ok):
    [$run[0].workloads[$w].metrics[$m].median,
     $base[0].workloads[$w].metrics[$m].median] as $rb
    | "\(if $rb[0] != null and $rb[1] != null and ($rb | ok)
          then "ok  " else "FAIL" end) \($w) \($m): \($rb[0]) (baseline \($rb[1]))";
  $run[0].workloads | keys[] as $w
  | check($w; "wire_bytes_per_op"; .[0] == .[1]),
    check($w; "msgs_per_op"; .[0] == .[1]),
    (if $bound == "" then empty
     else check($w; "alloc_words_per_op";
                (.[0] - .[1] | fabs) <= ($bound | tonumber) * .[1])
     end)')
echo "$report"
! grep -q '^FAIL' <<<"$report"
