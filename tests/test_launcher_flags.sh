#!/usr/bin/env bash
# Malformed launcher flags: every invocation below must exit 2 with an
# "error:" line on stderr that names the offending flag — never run on a
# misparsed value, never abort.
#
#   tests/test_launcher_flags.sh <deltacol_cli> <deltacol_mpi_like>
#
# Registered with CTest by the top-level CMakeLists.txt.
set -u

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <deltacol_cli> <deltacol_mpi_like>" >&2
  exit 2
fi
CLI="$1"
MPI="$2"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
# A valid input (the triangular prism, Delta = 3), so the flag is the only
# thing wrong with each CLI invocation.
printf '6 9\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n0 3\n1 4\n2 5\n' > "$TMP/prism.txt"

failures=0
# expect_usage_error FLAG COMMAND... — COMMAND must exit 2 and its stderr
# must carry an "error:" line naming FLAG.
expect_usage_error() {
  local flag="$1"
  shift
  "$@" > /dev/null 2> "$TMP/err.txt"
  local rc=$?
  if [[ $rc -eq 2 ]] && grep -q -- "^error: .*$flag" "$TMP/err.txt"; then
    echo "ok   $*"
  else
    echo "FAIL $* (exit $rc; expected 2 and an error naming $flag):"
    cat "$TMP/err.txt"
    failures=$((failures + 1))
  fi
}

expect_usage_error --threads "$CLI" "$TMP/prism.txt" --threads abc
expect_usage_error --seed "$CLI" "$TMP/prism.txt" --seed 7x
expect_usage_error --congest-bits "$CLI" "$TMP/prism.txt" --congest-bits 1e3
expect_usage_error --alg "$CLI" "$TMP/prism.txt" --alg fastest
expect_usage_error --dot "$CLI" "$TMP/prism.txt" --dot

expect_usage_error --world "$MPI" --gen regular-500-6 --transport inproc \
  --world abc
expect_usage_error --rank "$MPI" --gen regular-500-6 --rank
expect_usage_error --partition "$MPI" --gen regular-500-6 \
  --transport inproc --partition foo
expect_usage_error --port-base "$MPI" --gen regular-500-6 --port-base 70000

if [[ $failures -ne 0 ]]; then
  echo "$failures invocation(s) misparsed" >&2
  exit 1
fi
