#!/bin/sh
# The local CI gate: build everything, run the full test suite, and check
# formatting when ocamlformat is available.  Fails fast on the first error.
set -eu
cd "$(dirname "$0")"

# The archived snapshot of artifact $1 that a bench gate compares
# against: the newest whose rev is an ancestor of HEAD, in commit order
# (file mtimes follow checkout order in a fresh clone, not history).
# Prints nothing when no archived rev is an ancestor.
archived_baseline() {
  best= best_depth=-1
  for snap in bench_history/*/"$1"; do
    [ -f "$snap" ] || continue
    snap_rev=$(basename "$(dirname "$snap")")
    git merge-base --is-ancestor "$snap_rev" HEAD 2>/dev/null || continue
    depth=$(git rev-list --count "$snap_rev")
    if [ "$depth" -gt "$best_depth" ]; then
      best=$snap best_depth=$depth
    fi
  done
  echo "$best"
}

echo "== build =="
dune build @all

echo "== one domain spawner =="
# Util.Pool is the only code that spawns a domain: decode fan-out,
# corpus sweeps and the shard service plane all run as its batches, so
# its barrier and fail-fast rules are the only ones to reason about.
spawns=$(grep -rn "Domain.spawn" lib bin bench | grep -v "^lib/util/pool.ml:" || true)
if [ -n "$spawns" ]; then
  echo "$spawns"
  echo "one domain spawner: Domain.spawn outside lib/util/pool.ml"
  exit 1
fi

echo "== one lane rule =="
# Every fan-out (decode, corpus sweeps, the shard service plane) runs
# through Obs.Scope.map_lanes, which owns the lane scopes, their merge
# and the nested-decode pin; nothing else drives a pool batch itself.
lanes=$(grep -rnE "Pool\.(run|map)\b|merge_worker" lib bin bench \
  | grep -vE "^lib/(util/pool|obs/scope)\.ml:" || true)
if [ -n "$lanes" ]; then
  echo "$lanes"
  echo "one lane rule: a pool batch outside Obs.Scope.map_lanes"
  exit 1
fi

echo "== one front door =="
# Fleet.Routes owns the server build, the signature and the success
# routing of a report; the stream tier's tracker applies it with shard
# indices as targets and never builds a module or signs a report itself.
own=$(grep -rnE "Registry\.find|Bug\.build|Signature\.of_failing" lib/stream || true)
if [ -n "$own" ]; then
  echo "$own"
  echo "one front door: lib/stream builds a server module or a signature"
  exit 1
fi

echo "== test =="
dune runtest

echo "== benchmark smoke =="
# Every benchmark workload at reduced size, untraced and traced, with its
# correctness checks (verdict table == sequential fix_all, stream
# accounting, incremental == batch); the build fails if any check does.
dune build @perfbench/smoke/smoke

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== fmt =="
  dune build @fmt
else
  echo "== fmt == (skipped: ocamlformat not installed)"
fi


echo "== fleet smoke =="
fleet_out=$(dune exec bin/snorlax.exe -- fleet --endpoints 4 --bug pbzip2-1 \
  --metrics-text /tmp/snorlax_metrics.txt)
echo "$fleet_out"
# The exit status already guards "every bucket diagnosed"; also assert the
# output names a concrete root-cause pattern.
echo "$fleet_out" | grep -Eq "violation|deadlock" || {
  echo "fleet smoke: no diagnosis output"
  exit 1
}

echo "== openmetrics lint =="
# The exposition the fleet run just wrote must satisfy the format linter
# (counter _total naming, cumulative monotone le buckets, # EOF), and a
# doctored copy must fail — both exit paths get exercised.
dune exec bin/snorlax.exe -- metrics-lint /tmp/snorlax_metrics.txt
head -n -1 /tmp/snorlax_metrics.txt > /tmp/snorlax_metrics_bad.txt  # drop # EOF
if dune exec bin/snorlax.exe -- metrics-lint /tmp/snorlax_metrics_bad.txt \
    >/dev/null 2>&1; then
  echo "metrics-lint smoke: truncated exposition should fail"
  exit 1
fi
rm -f /tmp/snorlax_metrics.txt /tmp/snorlax_metrics_bad.txt

echo "== decode bench + compare smoke =="
# Produce the decode-throughput artifact, then run it through
# bench-compare against itself: the self-diff must report zero
# regressions, and a doctored copy must fail — both exit paths of the
# regression gate get exercised on every check run.
dune exec bench/main.exe -- --decode-only
dune exec bin/snorlax.exe -- bench-compare BENCH_decode.json BENCH_decode.json
sed 's/"seq_new_ns":[0-9.e+-]*/"seq_new_ns":9e12/' BENCH_decode.json \
  > /tmp/snorlax_bench_regressed.json
if dune exec bin/snorlax.exe -- bench-compare BENCH_decode.json \
    /tmp/snorlax_bench_regressed.json >/dev/null 2>&1; then
  echo "bench-compare smoke: doctored regression should fail"
  exit 1
fi
rm -f /tmp/snorlax_bench_regressed.json

echo "== decode bench gate =="
# Gate the fresh artifact against the newest archived ancestor (same
# generous wall-clock threshold as the fleet gate), and hold the batched
# decode pool to what its name claims: parallel_scaling is one decoder,
# cold, one trace at a time over the same decoder at 4 jobs, >= 2x.  Like
# the stream gate, the bench marks it skipped_few_cores below 4 cores
# (the ratio is still recorded).  Decoder speed itself is tracked by
# perfbench's pt.decoder.steps_per_s.
baseline=$(archived_baseline BENCH_decode.json)
if [ -n "$baseline" ]; then
  dune exec bin/snorlax.exe -- bench-compare --max-regress 200 \
    "$baseline" BENCH_decode.json
else
  echo "decode bench gate: no archived ancestor snapshot (skipped)"
fi
awk 'BEGIN { RS="," } /"parallel_gate"/ {
       if ($0 ~ /skipped_few_cores/) { print "decode bench gate: skipped (too few cores for the 2x assert)"; ok = 1 }
     }
     /"parallel_scaling"/ { split($0, kv, ":"); s = kv[2] + 0; seen = 1 }
     END {
       if (!seen) { print "decode bench gate: parallel_scaling missing"; exit 1 }
       if (ok) exit 0
       if (s >= 2.0) { print "decode bench gate: parallel_scaling " s " >= 2.0" }
       else { print "decode bench gate: parallel_scaling " s " < 2.0"; exit 1 }
     }' \
  BENCH_decode.json

echo "== stream smoke =="
# Continuous streaming path, serviced on two pool domains: the
# exit status gates "incremental diagnosis equals a from-scratch batch
# on every bucket", "backpressure accounting reconciles (offered = shed
# + drained + leftover, per shard)" and "the final drain left nothing
# queued" — all with pool batches in the loop.  Writes to /tmp: the
# canonical BENCH_stream.json comes from the bench gate below.
dune exec bin/snorlax.exe -- stream --bug pbzip2-1 --endpoints 6 \
  --duration-ticks 8 --shards 2 --churn --shard-domains 4 \
  --out /tmp/snorlax_stream_smoke.json
rm -f /tmp/snorlax_stream_smoke.json

echo "== stream bench gate =="
# Emit the streaming artifact: the same seeded scenario run inline
# (1 domain) and with one domain per shard (4), sharing one
# baseline reproduction.  The bench itself asserts the two bucket
# tables compare equal and that incremental == batch with accounting
# reconciled in both modes; the awk gate holds the service plane to its
# headline >= 2x speedup on hosts with enough cores (the bench marks
# the gate skipped_few_cores below 4 — extra domains cannot beat
# physics on one core, and the ratio is still recorded).
dune exec bench/main.exe -- --stream-only
awk 'BEGIN { RS="," } /"parallel_gate"/ {
       if ($0 ~ /skipped_few_cores/) { print "stream bench gate: skipped (too few cores for the 2x assert)"; ok = 1 }
     }
     /"stream_parallel_speedup"/ { split($0, kv, ":"); s = kv[2] + 0; seen = 1 }
     END {
       if (!seen) { print "stream bench gate: stream_parallel_speedup missing"; exit 1 }
       if (ok) exit 0
       if (s >= 2.0) { print "stream bench gate: stream_parallel_speedup " s " >= 2.0" }
       else { print "stream bench gate: stream_parallel_speedup " s " < 2.0"; exit 1 }
     }' \
  BENCH_stream.json

echo "== fleet bench gate =="
# Re-emit the batch-fleet benchmark and gate it against the newest
# archived ancestor.  The threshold is generous: these are wall-clock
# numbers from a shared CI box, so only order-of-magnitude regressions
# (e.g. an accidentally quadratic ingest path) should trip it.
dune exec bench/main.exe -- --fleet-only
baseline=$(archived_baseline BENCH_fleet.json)
if [ -n "$baseline" ]; then
  dune exec bin/snorlax.exe -- bench-compare --max-regress 200 \
    "$baseline" BENCH_fleet.json
else
  echo "fleet bench gate: no archived ancestor snapshot (skipped)"
fi

echo "== oracle gate =="
# Differential cross-check of the whole corpus against the
# happens-before oracle: nonzero exit on any diagnosis-miss,
# diagnosis-spurious or oracle-only divergence, and on any decoded ring
# the replayed execution contradicts (failing, success and 128 B rings).
dune exec bin/snorlax.exe -- oracle --all --out BENCH_oracle.json

echo "== chaos gate =="
# Exit status is the gate: any invariant violation, uncaught exception or
# nondeterministic replay in the fault-injection sweep fails the build.
dune exec bin/snorlax.exe -- chaos --seeds 25 --all --out BENCH_chaos.json

echo "== fix gate =="
# Close the loop over the whole corpus: synthesize a patch from each
# diagnosis and validate it (failing-seed replay + HB-oracle sweep).
# The exit status gates the fix rate at the corpus's saturated state:
# every bug (54/54) must earn an evidence-backed "fixed" verdict, so a
# changed schedule or sweep verdict fails here instead of hiding under a
# lower floor.  Writes BENCH_fix.json for the archive step below.
dune exec bin/snorlax.exe -- fix --all --seeds 10 --min-fix-rate 1.0 \
  --out BENCH_fix.json

echo "== bench archive =="
# Snapshot this run's BENCH_*.json artifacts under bench_history/<rev>/
# so the perf trajectory accumulates across commits (bench-compare any
# two snapshots to see where a regression landed).
rev=$(git rev-parse --short HEAD 2>/dev/null || echo workdir)
mkdir -p "bench_history/$rev"
cp BENCH_*.json "bench_history/$rev/" 2>/dev/null || true
ls "bench_history/$rev"

echo "check.sh: all green"
