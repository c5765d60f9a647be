#!/usr/bin/env bash
# Drives the built receipt_cli (ctest label `cli`), one section per ctest
# case:
#   refusals      every refused invocation exits 1 with a stderr line
#                 naming the flag, before any graph loads;
#   thread-flags  the bounds on the flags that size thread pools, checked
#                 without starting a thread;
#   help          `help` lists every flag the commands declare;
#   bytes         generate, decompose and wing write the expected bytes.
#
#   usage: tests/cli_test.sh path/to/receipt_cli refusals|thread-flags|help|bytes
set -u
CLI=$1
SECTION=${2:-}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
failures=0
fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# refuse NEEDLE ARGS...: `receipt_cli ARGS` exits 1, names NEEDLE on
# stderr and prints nothing on stdout.
refuse() {
  local needle=$1
  shift
  local rc=0
  "$CLI" "$@" > "$WORK/out" 2> "$WORK/err" || rc=$?
  [ "$rc" -eq 1 ] || fail "exit $rc, want 1: $*"
  grep -qF -- "$needle" "$WORK/err" ||
    fail "stderr does not name $needle: $* -> $(cat "$WORK/err")"
  [ ! -s "$WORK/out" ] || fail "wrote to stdout before refusing: $*"
}

digest() { sha256sum "$1" | cut -d' ' -f1; }
expect() {  # expect FILE SHA256
  [ "$(digest "$1")" = "$2" ] || fail "$(basename "$1") differs"
}
run() { "$CLI" "$@" > /dev/null || fail "exit $?: $*"; }

G=$WORK/g.konect
"$CLI" generate --type chunglu --nu 400 --nv 300 --edges 2000 --seed 7 \
  --output "$G" > /dev/null || fail "generate failed"

refusals() {
  # Unknown flags (one of them a flag since deleted), a stray argument, a
  # malformed integer, out-of-range integers and values not in an enum.
  refuse --no-such-flag generate --type chunglu --nu 400 --nv 300 \
    --edges 2000 --seed 7 --output "$WORK/x.konect" --no-such-flag 1
  refuse --max-staleness-ms generate --output "$WORK/x.konect" \
    --max-staleness-ms 5
  refuse --type generate --output "$WORK/x.konect" --type star
  refuse --alpha-u generate --output "$WORK/x.konect" --alpha-u high
  refuse --nu generate --output "$WORK/x.konect" --nu -1
  [ ! -e "$WORK/x.konect" ] || fail "a refused generate wrote its output"
  refuse g.konect stats g.konect --dataset it
  refuse --threads decompose --input "$G" --threads abc
  refuse --side decompose --input "$G" --side v
  refuse --algo decompose --input "$G" --algo fast
  refuse --partitions decompose --input "$G" --partitions -5
  refuse --parallel wing --input "$G" --parallel=yes
  refuse --output decompose --input "$G" --output
  refuse --port update --graph g --batch - --port 0 < /dev/null
  refuse tip-U:0 update --graph g --batch - --track tip-U:0 < /dev/null
  refuse --fsync serve --datasets it --data-dir "$WORK/data" --fsync sometimes \
    --queue-capacity 0
  refuse --snapshot-on-seal serve --datasets it --data-dir "$WORK/data" \
    --snapshot-on-seal maybe --queue-capacity 0
  [ ! -e "$WORK/data" ] || fail "a refused serve created its data dir"
}

thread_flags() {
  # Flags that size thread pools. Each invocation also carries a mistake
  # (--queue-capacity 0, --replication 0) that fails before the service or
  # the router is built, so no thread starts even if the bound check under
  # test were missing; the message must still name the thread flag.
  refuse --http-threads serve --http-port 0 --http-threads 0 --queue-capacity 0
  refuse --workers serve --datasets it --workers 0 --queue-capacity 0
  refuse --clients serve --datasets it --clients 0 --queue-capacity 0
  refuse --http-threads router --members a=127.0.0.1:1 --http-threads 0 \
    --replication 0
}

help_lists_flags() {
  # help lists every declared flag, and no other.
  "$CLI" help > "$WORK/help" || fail "help exited non-zero"
  declared="type nu nv edges alpha-u alpha-v seed output input dataset
  approx-samples algo side threads partitions no-huc no-dgm parallel graphs
  datasets workers cache-mb queue-capacity max-pending-edges live-track
  clients requests http-port http-threads data-dir fsync journal-segment-mb
  snapshot-on-seal cluster-id cluster-members replication cluster-proxy
  peer-timeout-ms members trace-log health-interval-ms graph batch host port
  seal track retries retry-base-ms"
  for flag in $declared; do
    grep -qE -- "^  --$flag( |$)" "$WORK/help" || fail "help omits --$flag"
  done
  listed=$(sed -n 's/^  --\([a-z-]*\).*/\1/p' "$WORK/help" | sort -u | wc -l)
  [ "$listed" -eq 49 ] || fail "help lists $listed distinct flags, want 49"
}

output_bytes() {
  # Output bytes. The graph's checksum holds for libstdc++'s random
  # distributions; the numbers' checksums hold for that graph on any build.
  run decompose --input "$G" --algo receipt --side U --threads 2 \
    --partitions 6 --output "$WORK/tips_u.txt"
  run decompose --input "$G" --algo bup --side V --threads 2 \
    --output "$WORK/tips_v.txt"
  run decompose --input "$G" --algo parb --side U --threads 2 --partitions 4 \
    --no-huc --no-dgm --output "$WORK/tips_parb.txt"
  run wing --input "$G" --parallel --threads 2 --partitions 4 \
    --output "$WORK/wings.txt"
  run generate --type random --nu 300 --nv 200 --edges 1500 --seed 3 \
    --output "$WORK/r.bin"
  run decompose --input "$WORK/r.bin" --side V --threads 1 \
    --output "$WORK/tips_r.txt"
  expect "$G" 98bdae4ae11a95fa6ffe83512e5105b9add4760bca8270d1880cf906f2fcf1a6
  expect "$WORK/r.bin" \
    da9a4607347b4300a6b745cb82a272a6b8382b808b7e5fc70ff9003ee6e1e01d
  expect "$WORK/tips_u.txt" \
    66fcb5cdf397ba25a10f5267720970706b4685267ff52a8c873af4dd325e6993
  expect "$WORK/tips_v.txt" \
    79e3437fc92f7f62e23cbe5bc3e01ae4dbdfe23852193d09d8956004afe3801e
  expect "$WORK/tips_parb.txt" \
    66fcb5cdf397ba25a10f5267720970706b4685267ff52a8c873af4dd325e6993
  expect "$WORK/wings.txt" \
    279cf4dbf424e30829ad436a643b367305f5e3f8534306de76ff82bf09e2a520
  expect "$WORK/tips_r.txt" \
    2c38e1ce95b575ca379595a4f5eb526057d5746d662e071dd8e9defdc72cc7c4
}

case "$SECTION" in
  refusals) refusals ;;
  thread-flags) thread_flags ;;
  help) help_lists_flags ;;
  bytes) output_bytes ;;
  *)
    echo "usage: $0 path/to/receipt_cli refusals|thread-flags|help|bytes" >&2
    exit 2
    ;;
esac

if [ "$failures" -ne 0 ]; then
  echo "$failures check(s) failed" >&2
  exit 1
fi
echo "receipt_cli $SECTION: all checks passed"
