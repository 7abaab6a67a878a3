#!/usr/bin/env bash
# Benchmark snapshot of the experiments layer and the RL hot paths: runs
# the parallel-runner benchmark (workers=1 vs 4) plus the planner/learner
# micro-benchmarks and records the numbers in BENCH_experiments.json,
# together with the host CPU budget that bounds any parallel speedup.
# Also benchmarks the wire codec (BENCH_wire.json), the CKPT checkpoint
# codec (BENCH_store.json) and the control-plane queue and bus
# (BENCH_queue.json), soaks the multi-tenant fleet runtime across a
# GOMAXPROCS x shards matrix, recording per-row throughput in
# BENCH_fleet.json, and runs the cluster soak (BENCH_cluster.json).
set -euo pipefail
cd "$(dirname "$0")/.."

# bench_rows turns `go test -bench -benchmem` output on stdin into JSON
# benchmark rows, comma-separated, one per line.
bench_rows() {
    awk '
        /^Benchmark/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            nsop = ""; bop = ""; allocs = ""
            for (i = 2; i < NF; i++) {
                if ($(i+1) == "ns/op") nsop = $i
                if ($(i+1) == "B/op") bop = $i
                if ($(i+1) == "allocs/op") allocs = $i
            }
            lines[n++] = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, nsop, bop, allocs)
        }
        END { for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n-1 ? "," : "") }
    '
}

# write_bench FILE NOTE RAW writes a benchmark snapshot: the toolchain,
# the host CPU count, NOTE (which must not contain a double quote) and
# the rows of the benchmark output RAW.
write_bench() {
    {
        echo '{'
        echo "  \"go\": \"$(go env GOVERSION)\","
        echo "  \"cpus\": $(getconf _NPROCESSORS_ONLN),"
        echo "  \"note\": \"$2\","
        echo '  "benchmarks": ['
        echo "$3" | bench_rows
        echo '  ]'
        echo '}'
    } > "$1"
    echo "wrote $1"
}

# join_files prints the JSON objects in the named files as the elements
# of a JSON array body.
join_files() {
    local i=0
    for f in "$@"; do
        i=$((i + 1))
        sep=","
        [[ $i -eq $# ]] && sep=""
        sed "\$s/\$/$sep/" "$f"
    done
}

out=BENCH_experiments.json
pattern='BenchmarkAblationsParallel|BenchmarkQLambdaObserve|BenchmarkPlannerTrainEpisode|BenchmarkPlannerPredict'

raw=$(go test -run '^$' -bench "$pattern" -benchmem -count 1 .)
echo "$raw"

# Timer core: the virtual clock's schedule/fire/re-arm/cancel cycles.
# Every row must stay at 0 allocs/op (TestSchedulerAllocBudgets in the
# no-race pass of scripts/check.sh locks the budgets; this records the
# time).
simraw=$(go test -run '^$' -bench 'BenchmarkSchedulerAt|BenchmarkSchedulerReschedule|BenchmarkSchedulerCancelChurn' -benchmem -count 1 ./internal/sim/)
echo "$simraw"
raw="$raw
$simraw"

write_bench "$out" 'Parallel speedup is bounded by the cpus figure above: on a single-CPU host workers=4 measures pool overhead rather than speedup. Experiment output is byte-identical at every worker count.' "$raw"

# Wire codec: the zero-allocation serving fast paths (append-based
# encode, union decode, pooled writer, resyncing reader) and the frame
# checksum they all pay (CRC16 over the largest frame).
wout=BENCH_wire.json
wpattern='BenchmarkEncode|BenchmarkDecode|BenchmarkWritePacket|BenchmarkReadPacket|BenchmarkCRC16'
wraw=$(go test -run '^$' -bench "$wpattern" -benchmem -count 1 ./internal/wire/)
echo "$wraw"

write_bench "$wout" 'Serving-path codec fast paths. allocs_per_op must stay 0 (enforced by TestServingFastPathsZeroAlloc in the no-race pass of scripts/check.sh).' "$wraw"

# Checkpoint codec: the binary CKPT encode (the only write format) and
# decode of binary and legacy JSON blobs. Encode and binary decode must
# stay at 0 allocs/op (enforced by the store alloc budgets in the
# no-race pass of scripts/check.sh); the JSON decode row is what a
# legacy checkpoint costs to migrate.
sout=BENCH_store.json
spattern='BenchmarkCheckpointEncode|BenchmarkCheckpointDecode'
sraw=$(go test -run '^$' -bench "$spattern" -benchmem -count 1 ./internal/store/)
echo "$sraw"

write_bench "$sout" 'CKPT checkpoint codec, one fleet-scale tenant blob per op. Encode is the MultiSaver write path; decode covers binary blobs and legacy JSON ones, which still load and migrate. allocs_per_op must stay 0 on encode and binary decode (TestCheckpointCodecAllocBudget, TestMultiSaverAllocBudget).' "$sraw"

# Control plane: the work queue's drain throughput (dispatch + permits
# + Done callbacks over a worker pool) and the event bus's publish fan-
# out. Neither sits on the per-event serving path — jobs and events are
# per checkpoint wave — so these bound how fine-grained control work
# can get before the queue itself shows up in a drain.
qout=BENCH_queue.json
qpattern='BenchmarkQueueThroughput|BenchmarkBusPublish'
qraw=$(go test -run '^$' -bench "$qpattern" -benchmem -count 1 ./internal/queue/ ./internal/notify/)
echo "$qraw"

write_bench "$qout" 'Control-plane fabric: one trivial job enqueued+drained per op at the fleet worker count (queue), and one event published per op with a single drained listener (bus). Dispatch order and digests are identical at every worker count; only wall-clock throughput moves.' "$qraw"

# Fleet throughput matrix: 1000 households through the sharded runtime
# at GOMAXPROCS×shards = 1/2/4/8. Each row records the parallelism it
# actually ran with (cpus = GOMAXPROCS, which may exceed host_cpus on
# small hosts — the digest is identical either way, only the wall-clock
# numbers move). The deterministic soak outcome goes to stdout; the
# wall-clock numbers land in the JSON rows.
fout=BENCH_fleet.json
rows=()
for n in 1 2 4 8; do
    row="/tmp/coreda-bench-fleet-$n.json"
    GOMAXPROCS=$n go run ./cmd/coreda-bench -households 1000 -fleet-shards "$n" -fleet-json "$row" fleet
    rows+=("$row")
done

# Idle-advance row: the clock-pump cost of the due-time tenant index
# over a 10k-household population with 1% mid-session
# (BenchmarkAdvanceIdle measures the same path at the shard level, where
# allocs/op is exact and must be 0).
idle_row=/tmp/coreda-bench-fleetidle.json
go run ./cmd/coreda-bench -households 10000 -idle-active 100 -idle-ticks 2000 -fleet-shards 1 -fleet-json "$idle_row" fleetidle
araw=$(go test -run '^$' -bench 'BenchmarkAdvanceIdle' -benchmem -count 1 ./internal/fleet/)
echo "$araw"

{
    echo '{'
    echo "  \"go\": \"$(go env GOVERSION)\","
    echo "  \"host_cpus\": $(getconf _NPROCESSORS_ONLN),"
    echo '  "note": "GOMAXPROCS x shards matrix over the same 1000-household soak. Digest and stats are identical on every row; only elapsed_sec/events_per_sec may differ. idle_rows measure the clock pump of the due-time tenant index over a mostly-idle 10k-household population; idle_benchmarks the same path at the shard level.",'
    echo '  "rows": ['
    join_files "${rows[@]}"
    echo '  ],'
    echo '  "idle_rows": ['
    join_files "$idle_row"
    echo '  ],'
    echo '  "idle_benchmarks": ['
    echo "$araw" | bench_rows
    echo '  ]'
    echo '}'
} > "$fout"
rm -f "${rows[@]}" "$idle_row"

echo "wrote $fout"

# Cluster throughput: the same soak executed by 1, 2 and 3 cooperating
# worker processes (checkpoint replication at K=2). Every row's digest
# is gated against the single-process baseline inside the bench itself;
# the events_per_sec column is what distribution buys (or costs — the
# replication barrier is per-round) on this host.
cout=BENCH_cluster.json
go run ./cmd/coreda-bench -cluster-households 64 -cluster-sessions 6 -cluster-json "$cout" cluster
echo "wrote $cout"
