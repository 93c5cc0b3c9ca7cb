#!/usr/bin/env bash
# Gate the benchmarks on their host-independent counts:
#
#   bash bench/check_counts.sh SIM.json BENCH.json REFERENCE.json [ALLOC_BOUND]
#
# SIM.json is what `bench/e2e/run.sh ... --json SIM.json` wrote, BENCH.json
# what `bench/main.exe --sections ... --json BENCH.json` wrote, and
# REFERENCE.json is normally bench/counts.json.  One line per check, and
# a nonzero exit if any line says FAIL:
#
# - For every workload in SIM.json or the reference, wire_bytes_per_op
#   and msgs_per_op must equal the reference's medians exactly.  With
#   ALLOC_BOUND (a fraction, e.g. 0.05), alloc_words_per_op must lie
#   within that fraction of the reference's.  Allocation counts depend on
#   the compiler version, so pass the bound only when the run used the
#   reference's OCaml.  Timings and setup_s follow the host: not gated.
# - Every row of the reference's `metrics` array must appear in BENCH.json
#   with the same value, so a section dropped from the run fails.  Every
#   row BENCH.json marks "exact" (bench/main.ml's Json.count) must appear
#   in the reference, so a new count fails until it is committed.
#
# bench/counts.json is the two runs CI makes, merged:
#
#   bash bench/e2e/run.sh --workloads sim-durable --seed 1 --seconds 10 \
#     --trace 0 --json sim.json
#   dune exec bench/main.exe -- --sections SECTIONS --json bench-ci.json
#   jq -s '.[0] + {metrics: [.[1].metrics[] | select(.exact)]}' \
#     sim.json bench-ci.json > bench/counts.json
#
# with SECTIONS the list in .github/workflows/ci.yml.  A change that
# moves a count on purpose re-commits the file and says why.  Needs jq.
set -euo pipefail
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  echo "usage: $0 SIM.json BENCH.json REFERENCE.json [ALLOC_BOUND]" >&2
  exit 2
fi
report=$(jq -r -n --slurpfile run "$1" --slurpfile bench "$2" \
  --slurpfile ref "$3" --arg bound "${4:-}" '
  def line($ok; $what; $got):
    "\(if $ok then "ok  " else "FAIL" end) \($what): \($got)";
  # one line per gated e2e metric; ok(f) sees [run median, reference median]
  def check($w; $m; ok):
    [$run[0].workloads[$w].metrics[$m].median,
     $ref[0].workloads[$w].metrics[$m].median] as $rr
    | line($rr[0] != null and $rr[1] != null and ($rr | ok);
           "\($w) \($m)"; "\($rr[0]) (reference \($rr[1]))");
  def key: "\(.section) \(.name)";
  ($bench[0].metrics // []) as $rows
  | ($ref[0].metrics // []) as $counts
  | ((($run[0].workloads // {}) + ($ref[0].workloads // {}) | keys[]) as $w
     | check($w; "wire_bytes_per_op"; .[0] == .[1]),
       check($w; "msgs_per_op"; .[0] == .[1]),
       (if $bound == "" then empty
        else check($w; "alloc_words_per_op";
                   (.[0] - .[1] | fabs) <= ($bound | tonumber) * .[1])
        end)),
    ($counts[] as $c
     | [$rows[] | select(key == ($c | key))][0] as $r
     | if $r == null
       then line(false; $c | key; "missing from the run (reference \($c.value))")
       else line($r.value == $c.value; $c | key;
                 "\($r.value) (reference \($c.value))")
       end),
    ($rows[] | select(.exact) as $r
     | select(any($counts[]; key == ($r | key)) | not)
     | line(false; $r | key; "\($r.value) (not in the reference)"))')
echo "$report"
! grep -q '^FAIL' <<<"$report"
