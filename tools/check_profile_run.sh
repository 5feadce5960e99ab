#!/bin/sh
# Checks that --profile describes the run --run asked for, from that run's
# own report: an edge-tile 100^3 run prints its attribution rows under a
# title naming the simulated clock, its exposed-DMA and sync rows equal the
# --report json figures to the printed precision, and no copy of a run,
# estimate, compile or latency number follows in the metrics registry.
#
#   sh tools/check_profile_run.sh path/to/swcodegen examples/quickstart_gemm.c
set -u
swcodegen=$1
input=$2

out=$("$swcodegen" "$input" -o profile_run --pad-mode edge \
  --run 100 100 100 --profile --report json) || {
  echo "swcodegen exited $?"
  exit 1
}
status=0
json=$(printf '%s\n' "$out" | grep '^{')

# The report's value of a JSON number field, rounded as --profile prints it.
report_pct() {
  value=$(printf '%s\n' "$json" | sed -n "s/.*\"$1\":\([-0-9.e+]*\).*/\1/p")
  [ -n "$value" ] && awk -v v="$value" 'BEGIN { printf "%.1f", v }'
}
# The share on one of --profile's attribution rows.
profile_pct() {
  printf '%s\n' "$out" | sed -n "s/^    $1  *\([-0-9.]*\) %\$/\1/p"
}

for row in "exposed DMA:exposed_dma_pct" "sync:sync_pct"; do
  label=${row%%:*}
  want=$(report_pct "${row#*:}")
  got=$(profile_pct "$label")
  if [ -z "$want" ] || [ "$got" != "$want" ]; then
    echo "--profile row '$label' reads '$got', the report '$want'"
    status=1
  fi
done

if ! printf '%s\n' "$out" |
    grep -q '^functional mesh run 100x100x100 batch 1 .*, simulated clock:$'
then
  echo "no run block titled with its simulated clock"
  status=1
fi

# Copies that used to follow in the registry table: run.mesh.*,
# run.estimate.*, compile.* and the latency percentiles.
copies=$(printf '%s\n' "$out" |
  grep -E '^(run|compile):$|^  (mesh|estimate)\.|_pct  |\.(p50|p90|p99|mean|max)_ms|^  spm_')
if [ -n "$copies" ]; then
  echo "--profile still prints copies:"
  printf '%s\n' "$copies"
  status=1
fi

[ "$status" -eq 0 ] && echo "profile matches the report"
exit "$status"
