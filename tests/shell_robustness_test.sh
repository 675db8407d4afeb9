#!/usr/bin/env bash
# Regression test for the lyric_shell exception firewall: a statement
# that throws (std::bad_alloc injected via the LYRIC_FAULT shell site)
# must be reported per statement, leave the session alive for the next
# statement, and exit cleanly — not kill the process.
#
# Usage: shell_robustness_test.sh <path-to-lyric_shell> [path-to-lyric_check]
set -u

SHELL_BIN="$1"
CHECK_BIN="${2:-}"
fails=0

fail() {
  echo "FAIL: $1" >&2
  fails=$((fails + 1))
}

# 1. Every statement throws: the shell must survive all of them and quit
#    normally at EOF.
out=$(printf 'SELECT X FROM Desk X;\nSELECT Y FROM Desk Y;\n.quit\n' \
      | LYRIC_FAULT=shell:1.0 "$SHELL_BIN" 2>&1)
rc=$?
[ "$rc" -eq 0 ] || fail "shell exited $rc under LYRIC_FAULT=shell:1.0"
echo "$out" | grep -q "out of memory" \
  || fail "shell did not report the injected bad_alloc: $out"
count=$(echo "$out" | grep -c "out of memory")
[ "$count" -ge 2 ] \
  || fail "shell stopped reporting after the first throw (got $count)"

# 2. Intermittent throws: statements before and after a crash still run.
out=$(printf '.help\n.stats\n.quit\n' \
      | LYRIC_FAULT=shell:0.5:42 "$SHELL_BIN" 2>&1)
rc=$?
[ "$rc" -eq 0 ] || fail "shell exited $rc under intermittent faults"

# 3. No fault: a normal session still works and answers a query.
out=$(printf '.office\nSELECT X FROM Desk X;\n.quit\n' | "$SHELL_BIN" 2>&1)
rc=$?
[ "$rc" -eq 0 ] || fail "clean shell session exited $rc"
echo "$out" | grep -q "row" || fail "clean session produced no rows: $out"

# 4. A corrupt .load reports an error and the session continues.
corrupt=$(mktemp /tmp/lyric_corrupt.XXXXXX)
printf -- '-- lyric database dump v1\nCLASS Br' > "$corrupt"
out=$(printf '.office\n.load %s\nSELECT X FROM Desk X;\n.quit\n' "$corrupt" \
      | "$SHELL_BIN" 2>&1)
rc=$?
rm -f "$corrupt"
[ "$rc" -eq 0 ] || fail "shell exited $rc after corrupt .load"
echo "$out" | grep -qi "error" || fail "corrupt .load not reported: $out"
echo "$out" | grep -q "row" || fail "session dead after corrupt .load: $out"

# 4b. Admission control from the shell: .admit configures the scheduler,
#     .stats reports the effective limits, queries still run under the
#     cap, and .admit off clears it.
out=$(printf '.office\n.admit 2 4 500\n.stats\nSELECT X FROM Desk X;\n.admit off\n.admit\n.quit\n' \
      | "$SHELL_BIN" 2>&1)
rc=$?
[ "$rc" -eq 0 ] || fail "shell exited $rc during .admit session"
echo "$out" | grep -q "max_concurrent = 2" \
  || fail ".stats did not report the configured concurrency cap: $out"
echo "$out" | grep -q "scheduler:" \
  || fail ".stats did not print live scheduler counters: $out"
echo "$out" | grep -q "row" || fail "query failed under .admit cap: $out"
echo "$out" | grep -q "max_concurrent = off" \
  || fail ".admit off did not clear the cap: $out"

# 4c. A forced admission shed surfaces as a typed transient error and the
#     session survives; with LYRIC_RETRY armed the same query succeeds.
out=$(printf '.office\nSELECT X FROM Desk X;\n.quit\n' \
      | LYRIC_FAULT=scheduler:0.5:5 LYRIC_RETRY=16:1 "$SHELL_BIN" 2>&1)
rc=$?
[ "$rc" -eq 0 ] || fail "shell exited $rc under scheduler faults"
echo "$out" | grep -q "row" \
  || fail "retry policy did not recover the shed query: $out"

# 4d. Numeric arguments and variables parse strictly: "-1" is malformed,
#     not 2^64 - 1 (a cache that never evicts). A malformed argument
#     prints the usage; a malformed variable reads as unset.
out=$(printf '.cache -1\n.quit\n' | "$SHELL_BIN" 2>&1)
echo "$out" | grep -q "usage: .cache" \
  || fail ".cache -1 did not print the usage: $out"
out=$(printf '.cache\n.quit\n' | LYRIC_CACHE_CAPACITY=-1 "$SHELL_BIN" 2>&1)
echo "$out" | grep -q "size=0/4096" \
  || fail "LYRIC_CACHE_CAPACITY=-1 did not fall back to 4096: $out"

# 5. lyric_check per-file firewall: a batch with a bad file reports and
#    keeps going (non-zero exit, no crash signal).
if [ -n "$CHECK_BIN" ]; then
  bad=$(mktemp /tmp/lyric_bad.XXXXXX.lyric)
  printf 'SELECT FROM WHERE ((((\n' > "$bad"
  "$CHECK_BIN" "$bad" > /dev/null 2>&1
  rc=$?
  rm -f "$bad"
  { [ "$rc" -ge 1 ] && [ "$rc" -lt 126 ]; } \
    || fail "lyric_check crashed (exit $rc) instead of reporting"
fi

# 6. A 1,000,000-term sum (a 2 MB statement) is one n-ary node: the
#    shell answers it and lyric_check analyzes it without recursing once
#    per term.
chain=$(mktemp /tmp/lyric_chain.XXXXXX.lyric)
{ printf 'SELECT D FROM Desk D WHERE SAT(x <= 1'
  yes '+1' | head -n 999999 | tr -d '\n'
  printf ');\n'; } > "$chain"
out=$({ printf '.office\n'; cat "$chain"; printf '.quit\n'; } \
      | "$SHELL_BIN" 2>&1)
rc=$?
[ "$rc" -eq 0 ] || fail "shell exited $rc on a 1,000,000-term sum"
echo "$out" | grep -q "row" || fail "shell did not answer the long sum"
if [ -n "$CHECK_BIN" ]; then
  "$CHECK_BIN" "$chain" > /dev/null 2>&1
  rc=$?
  [ "$rc" -eq 0 ] || fail "lyric_check exited $rc on a 1,000,000-term sum"
fi
rm -f "$chain"

if [ "$fails" -ne 0 ]; then
  echo "$fails shell robustness check(s) failed" >&2
  exit 1
fi
echo "shell robustness: all checks passed"
