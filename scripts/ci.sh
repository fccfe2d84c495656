#!/bin/sh
# Tier-1 gate: build, full test suite with runtime lock-order/heap/barrier
# capture, the seeded fault-injection torture suite again under extra
# seeds, the refine sweep, and finally the one klint run, which takes the
# ladder reconciliation, every ratchet and the static/runtime
# reconciliation input. The torture suite drives the
# journalfs stack through Flakydev faults under fixed seeds and checks
# that every crash/recovery lands in a spec-allowed state — it must stay
# green before any merge.
set -eu
cd "$(dirname "$0")/.."

echo "== ci: dune build =="
dune build

# Every process from here on appends the runtime records it observed to
# this one file at exit: lock-order edges, heap events (use-after-free,
# double-free, leak sites) and Wcache barrier-discipline violations.
# The final klint call checks each against the static findings.
# test_wcache's rawlog_unsafe fixture guarantees a wcache record lands
# here.  --force so cached (skipped) tests cannot leave holes.  dune
# reruns the cram test (test/cli.t) only when its binaries or the value
# of KSIM_EXPORT change, so each run exports to a file of its own, named
# by this shell's pid, after removing older runs' files.
rm -f _build/runtime-export*.txt
RUNTIME_EXPORT="$(pwd)/_build/runtime-export.$$.txt"
export KSIM_EXPORT="$RUNTIME_EXPORT"

echo "== ci: dune runtest =="
dune runtest --force

echo "== ci: torture extra seeds (supervision escalation gate) =="
# The checked-in seeds (runtest above ran them too) plus three more.
# The supervised torture scenarios fail the whole run if any seed drives
# the mount supervisor into an unexpected Failed escalation instead of a
# clean microreboot.
KSIM_TORTURE_SEEDS="101,202,303" dune exec test/test_torture.exe

# The memory gate: every stage that builds crash images runs under a
# virtual-memory cap (ulimit -v, in KiB).  A crash image shares the
# media blocks it did not change and nothing may keep one alive after
# its check, so the full sweep needs tens of MB; a leak that pins crash
# devices fails its stage instead of swapping the host.
MEM_CAP_KB=1048576

# top_heap_words FAILURE CMD...: run CMD under the memory cap with GC
# stats on and print its peak heap in words, or fail with FAILURE if it
# fails or runs out of memory.  Binaries run directly because `dune
# exec` prints GC stats of its own under OCAMLRUNPARAM=v=0x400.
top_heap_words() {
  failure=$1
  shift
  ( ulimit -v "$MEM_CAP_KB"
    OCAMLRUNPARAM=v=0x400 "$@" > /dev/null 2> _build/gc-stats.txt ) \
    || { echo "ci: FAIL — $failure" >&2; exit 1; }
  sed -n 's/^top_heap_words: *//p' _build/gc-stats.txt
}

echo "== ci: wcache cache-loss torture (volatile disk contract, memory cap) =="
# Seeded cache-loss torture: journalfs over the volatile write-back
# cache with writeback reordering forced on, every crash residue
# materialized and journal-replay remounted, acked versions gated
# against the barrier floor — plus the registered harnesses re-verified
# over the same hostile disk.  KSIM_WCACHE_SEEDS widens the seed set
# (same hook style as KSIM_TORTURE_SEEDS).
( ulimit -v "$MEM_CAP_KB"
  KSIM_WCACHE_SEEDS="${KSIM_WCACHE_SEEDS:-5,17}" dune exec test/test_wcache.exe -- test torture )

echo "== ci: crash-test (EXP-CRASH shape, memory cap) =="
# The crash-safety experiment through krefine over the write-back disk:
# the exit code is 0 only when journaled and group commit are CRASH-SAFE
# and Direct mode is UNSAFE.  The binary runs directly (built above).
( ulimit -v "$MEM_CAP_KB"
  _build/default/bin/safeos.exe crash-test > /dev/null ) \
  || { echo "ci: FAIL — crash-test lost the EXP-CRASH shape or ran out of memory" >&2; exit 1; }

echo "== ci: kload smoke (multi-tenant storm, recovery-SLO gate) =="
# ~500 tenants of mixed traffic with a mid-run panic storm, then the
# same at 4,000 tenants, the benchmark's scale.  The SLO gate is the
# exit code: p99 oops->healthy within bound, bounded error streaks, zero
# lost acknowledged writes, no uncontained tenant crash.  The `wall:`
# lines show what the per-op path costs, and what it costs with eight
# times the tenants waiting.
for tenants in 500 4000; do
  dune exec bin/safeos.exe -- load --tenants "$tenants" --storm mixed --seed 42 \
    > "_build/kload-smoke-$tenants.txt" \
    || { echo "ci: FAIL — kload smoke ($tenants tenants) violated the recovery SLO" >&2; exit 1; }
  echo "ci: kload smoke $tenants tenants $(grep '^wall:' "_build/kload-smoke-$tenants.txt")"
done

echo "== ci: kload heap growth (memory bounded in trace length, memory cap) =="
# Durable kload traffic (fsynced journal commits through the write-back
# cache, no storm) at two run lengths: quadrupling the ops may at most
# double the peak heap, so nothing on the block stack may keep every
# write it acked.
kload_spec='keyspace=96;payload=4096;classes=bulk:1:dwrite=8,dread=2'
heap_short=$(top_heap_words "the ops=100 durable kload run failed or ran out of memory" \
  _build/default/bin/safeos.exe load --storm none --seed 42 --spec "tenants=64;ops=100;$kload_spec")
heap_long=$(top_heap_words "the ops=400 durable kload run failed or ran out of memory" \
  _build/default/bin/safeos.exe load --storm none --seed 42 --spec "tenants=64;ops=400;$kload_spec")
echo "ci: kload top_heap_words: $heap_short at 100 ops/tenant, $heap_long at 400"
if [ -z "$heap_short" ] || [ -z "$heap_long" ]; then
  echo "ci: FAIL — no top_heap_words in the kload runs' GC stats" >&2
  exit 1
fi
if [ "$heap_long" -gt $((heap_short * 2)) ]; then
  echo "ci: FAIL — 4x the kload ops more than doubled the peak heap" >&2
  exit 1
fi

echo "== ci: kload extra seeds =="
# KSIM_KLOAD_SEEDS / KSIM_KLOAD_TENANTS widen the seeded population the
# alcotest kload suite runs (same hook style as KSIM_TORTURE_SEEDS).
KSIM_KLOAD_SEEDS="${KSIM_KLOAD_SEEDS:-7,101}" dune exec test/test_kload.exe -- test harness 3

echo "== ci: refine sweep (krefine harnesses vs Fs_spec, memory cap) =="
# Every registered kharness machine (journalfs, cowfs, the supervised
# microreboot path) replays a kload-recorded trace in lockstep with
# Fs_spec at the `safeos refine` defaults — a >=10k-op trace with 7
# crash images at every op.  Any divergence, or running out of the
# memory cap, fails the run; its `wall:` line shows what the stage
# costs.  The coverage the pass produced is ratcheted against
# refine.baseline by the final klint stage (R15 keeps "Verified"
# registry claims honest even when this stage is skipped).
# KSIM_REFINE_SEEDS widens the seed set, same hook style as
# KSIM_TORTURE_SEEDS.
REFINE_COVERAGE="$(pwd)/_build/refine-coverage.txt"
rm -f "$REFINE_COVERAGE"
refine_seed="${KSIM_REFINE_SEEDS:-11}"
refine_seed="${refine_seed%%,*}"
( ulimit -v "$MEM_CAP_KB"
  dune exec bin/safeos.exe -- refine --all --seed "$refine_seed" \
    --coverage-out "$REFINE_COVERAGE" > _build/refine-sweep.txt ) \
  || { echo "ci: FAIL — a krefine harness diverged from Fs_spec or ran out of memory" >&2; exit 1; }
echo "ci: refine sweep $(grep '^wall:' _build/refine-sweep.txt)"
( ulimit -v "$MEM_CAP_KB"
  KSIM_REFINE_SEEDS="${KSIM_REFINE_SEEDS:-11}" dune exec test/test_krefine.exe -- test harnesses )
# The heap share crash checking adds.  Peak heap cannot be compared
# across trace lengths (the trace itself grows), so one 4k-op sweep runs
# with crash images at every op and without any, and the first may peak
# at most 1.5x the second: crash images must be dropped after their
# check.
heap_crash=$(top_heap_words "the --crash-every 1 sweep diverged or ran out of memory" \
  _build/default/bin/safeos.exe refine --all --seed 11 --ops 4000 --crash-every 1)
heap_plain=$(top_heap_words "the --crash-every 0 sweep diverged or ran out of memory" \
  _build/default/bin/safeos.exe refine --all --seed 11 --ops 4000 --crash-every 0)
echo "ci: refine top_heap_words: $heap_crash with crash images, $heap_plain without"
if [ -z "$heap_crash" ] || [ -z "$heap_plain" ]; then
  echo "ci: FAIL — no top_heap_words in the sweep's GC stats" >&2
  exit 1
fi
if [ $((heap_crash * 2)) -gt $((heap_plain * 3)) ]; then
  echo "ci: FAIL — crash checking more than 1.5x the sweep's peak heap" >&2
  exit 1
fi

echo "== ci: klint ratchets and reconciliation (static vs runtime) =="
# CI's one klint run, over one lint of the tree, takes every input:
# - the ladder reconciliation against klint.baseline, and the
#   tcb.baseline (R12-R14) and dur.baseline (R16-R18) count ratchets,
#   which may only shrink (a genuine new exhibit means regenerating the
#   file with `dune exec bin/klint/main.exe -- --update-baseline`);
# - klint.baseline may only shrink against its HEAD copy, per (rule,
#   file) count, so pure renumbering is never growth (deliberate growth:
#   ALLOW_BASELINE_GROWTH=1);
# - the refine sweep's coverage may only grow against refine.baseline,
#   and any reported divergence fails (a deliberate reduction reruns
#   klint with --update-baseline, which rewrites refine.baseline first);
# - every lock nesting, heap event (use-after-free, double-free, leak)
#   and Wcache barrier violation in the runtime export must already be
#   in klint's static findings, or the analysis has a hole.
# An export that lacks records of any kind fails too (exit 2): the
# capture is broken, and a reconciliation that checked nothing must not
# pass.  The binary runs directly, like the heap stages above; its
# `wall:` line, the whole-tree lint time, is echoed like the refine
# sweep's.
set -- --root . --refine-coverage "$REFINE_COVERAGE" --runtime-export "$RUNTIME_EXPORT"
if git rev-parse --verify -q HEAD >/dev/null 2>&1 \
   && git cat-file -e HEAD:klint.baseline 2>/dev/null; then
  git show HEAD:klint.baseline > _build/baseline-head.txt
  set -- "$@" --baseline-head _build/baseline-head.txt
else
  echo "ci: no HEAD baseline to ratchet against (first commit?); skipping that ratchet"
fi
if [ "${ALLOW_BASELINE_GROWTH:-0}" = "1" ]; then
  set -- "$@" --allow-baseline-growth
fi
klint_rc=0
_build/default/bin/klint/main.exe "$@" > _build/klint-final.txt || klint_rc=$?
cat _build/klint-final.txt
echo "ci: klint $(grep '^wall:' _build/klint-final.txt)"
if [ "$klint_rc" -ne 0 ]; then
  echo "ci: FAIL — klint exited $klint_rc" >&2
  exit "$klint_rc"
fi

echo "== ci: ok =="
