#!/usr/bin/env bash
# The tools' flags that override a scenario field (--seed, --duration,
# --converge*, --sample-every) and noc_sweep's --axis values take exactly
# the values a .scn file takes, because they apply as the directive they
# stand for through the scenario parser. For each bad value below, the tool
# must fail with an error that names the flag (or axis) and carries the
# parser's own message for the same value written in the spec file. A valid
# override must give the same result JSON, byte for byte, as the equivalent
# in-file directive.
#
#   scripts/check_cli_overrides.sh NOC_SIM NOC_SWEEP   (also a ctest)
set -euo pipefail

noc_sim="$1"
noc_sweep="$2"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
failures=0

# spec NAME DIRECTIVE...: a tiny scenario with the given extra lines.
spec() {
  local name="$1"
  shift
  printf '%s\n' "scenario cli_check" "noc star 4" "warmup 100" \
    "traffic neighbor inject periodic 8" "$@" >"$tmp/$name.scn"
}

# parser_text SCN: the parser's message for SCN, without "line N: ".
parser_text() {
  if timeout 10 "$noc_sim" --quiet "$1" >/dev/null 2>"$tmp/parser.err"; then
    echo "(the parser accepted $(basename "$1"))"
  else
    sed -E 's/.*line [0-9]+: //' "$tmp/parser.err"
  fi
}

# expect_error NAME TEXT CMD...: CMD fails naming NAME and saying TEXT.
# A tool that accepts a huge duration would simulate for hours, so each
# run is cut after 10 s; being cut counts as accepting the value.
expect_error() {
  local name="$1" text="$2"
  shift 2
  if timeout 10 "$@" >/dev/null 2>"$tmp/tool.err" ||
     [[ $? -eq 124 ]]; then
    echo "FAIL: accepted: $*"
    failures=$((failures + 1))
    return
  fi
  if ! grep -qF -- "$name" "$tmp/tool.err" ||
     ! grep -qF -- "$text" "$tmp/tool.err"; then
    echo "FAIL: $* -- expected '$name' and '$text', got:"
    cat "$tmp/tool.err"
    failures=$((failures + 1))
  fi
}

# expect_same_json A_ARGS... -- B_ARGS...: both noc_sim runs succeed and
# write byte-identical JSON.
expect_same_json() {
  local a=() b=()
  while [[ "$1" != "--" ]]; do a+=("$1"); shift; done
  shift
  b=("$@")
  if ! "$noc_sim" --quiet -o "$tmp/a.json" "${a[@]}" ||
     ! "$noc_sim" --quiet -o "$tmp/b.json" "${b[@]}" ||
     ! cmp -s "$tmp/a.json" "$tmp/b.json"; then
    echo "FAIL: '${a[*]}' and '${b[*]}' differ"
    failures=$((failures + 1))
  fi
}

spec plain "duration 400"

# Durations above 2^40: convergence runs are capped at 10x the duration,
# which must not overflow.
spec file_duration "duration 9223372036854775807"
expect_error --duration "$(parser_text "$tmp/file_duration.scn")" \
  "$noc_sim" --quiet --duration 9223372036854775807 --converge 0.1 \
  "$tmp/plain.scn"
spec file_duration "duration 2199023255552"
expect_error --duration "$(parser_text "$tmp/file_duration.scn")" \
  "$noc_sim" --quiet --duration 2199023255552 "$tmp/plain.scn"

# A check interval shorter than one slot.
spec file_interval "duration 400" "converge rel_err 0.1 interval 1"
expect_error --converge-interval "$(parser_text "$tmp/file_interval.scn")" \
  "$noc_sim" --quiet --converge 0.1 --converge-interval 1 "$tmp/plain.scn"

# A seed above 2^63-1, which the result JSON could not print back.
spec file_seed "duration 400" "seed 18446744073709551615"
expect_error --seed "$(parser_text "$tmp/file_seed.scn")" \
  "$noc_sim" --quiet --seed 18446744073709551615 "$tmp/plain.scn"

# A sampling window shorter than one slot.
spec file_sample "duration 400" "stats sample_every 1"
expect_error --sample-every "$(parser_text "$tmp/file_sample.scn")" \
  "$noc_sim" --quiet --sample-every 1 "$tmp/plain.scn"

# An injection period above the cap, as a sweep axis and in a .scn file.
spec file_period "duration 400" \
  "traffic pairs 0 2 inject periodic 2147483648"
period_text="$(parser_text "$tmp/file_period.scn")"
printf '%s\n' "sweep cli_check" "base plain.scn" >"$tmp/plain.swp"
expect_error "--axis period" "$period_text" \
  "$noc_sweep" --quiet --axis period=2147483648 "$tmp/plain.swp"
expect_error "line 6" "period must be >= 1 and <= 2^30" \
  "$noc_sim" --quiet "$tmp/file_period.scn"

# Valid overrides match the in-file directive byte for byte.
spec file_800 "duration 800"
expect_same_json --duration 800 "$tmp/plain.scn" -- "$tmp/file_800.scn"
spec file_seed3 "duration 400" "seed 3"
expect_same_json --seed 3 "$tmp/plain.scn" -- "$tmp/file_seed3.scn"
spec file_converge "duration 400" "converge rel_err 0.05 interval 600"
expect_same_json --converge 0.05 --converge-interval 600 "$tmp/plain.scn" \
  -- "$tmp/file_converge.scn"

if [[ "$failures" -gt 0 ]]; then
  echo "cli overrides: $failures check(s) failed" >&2
  exit 1
fi
echo "cli overrides: every flag and axis goes through the scenario parser"
