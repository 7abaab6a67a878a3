#!/usr/bin/env bash
# Single CI entrypoint: formatting gate, stock vet, CoReDA's own static
# analyzers, then the full test suite under the race detector. Mirrors
# `make check` (plus the gofmt gate, which make leaves to editors).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

# hotalloc is excluded here and run in the no-race phase below: it
# shells out to `go build -gcflags=-m=2`, and escape analysis must be
# judged on the same build mode the alloc budgets run under.
echo "== coreda-vet"
go run ./cmd/coreda-vet -skip hotalloc ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

# The zero-allocation budgets on the serving path skip themselves under
# the race detector (its instrumentation allocates), so they are
# enforced by an explicit no-race pass over the serving packages:
# the wire codec, the timer core, the shard ingest + clock-pump loops,
# the node client's report path, and the CKPT checkpoint codec — plus
# the lazy RNG register (TestRNGLazyAlloc) and the live heap a resident
# household holds (TestTenantResidentAllocBudget). The
# hotalloc analyzer rides in the same phase — it names the escaping
# expression when a //coreda:hotpath function regresses, which an
# AllocsPerRun count never does.
echo "== alloc budgets (no race)"
go test -run 'Alloc' ./internal/wire/ ./internal/sim/ ./internal/fleet/ ./internal/rtbridge/ ./internal/store/
go run ./cmd/coreda-vet -only hotalloc ./...

# Advance parity gate: the due-time tenant index must be observationally
# equivalent to the pre-index full sweep — identical digests at 1/4/8
# shards (TestAdvanceParity) and identical late-event clamping via the
# lazy tick floor (TestLateEventAfterTickParity). The differential tests
# pin the scheduler against a naive reference implementation, and
# sim.RNG's ported source against math/rand's own seeded source (every
# draw method, edge and random seeds, the multiply-and-fold seeding step
# against Schrage's, the stream-seed derivation, and every stopping
# point around the lazy register's window and block boundaries, fresh
# and reseeded).
echo "== advance + RNG parity (indexed vs sweep, port vs stdlib, race-enabled)"
go test -race -count 1 -run 'TestAdvanceParity|TestLateEventAfterTickParity|TestDueHeap' ./internal/fleet/
go test -race -count 1 -run 'TestSchedulerMatchesNaiveReference|TestRNGSourceMatchesStdlib|TestMulMod31MatchesSchrage|TestRNGDerivationUnchanged|TestRNGLazyBoundary' ./internal/sim/

# Stop-race gate: a connection handed to either TCP server after Stop
# must be closed, not registered past Stop's sweep and left blocking in
# ReadFrame. Repeated because the race it pins was intermittent.
echo "== server stop (HandleConn after Stop, race-enabled, x10)"
go test -race -count 10 -run 'TestHandleConnAfterStopReturns|TestServerStopClosesConnections' ./internal/rtbridge/ ./internal/fleet/

echo "== chaos soak (workers 1 vs 4 must match)"
go run ./cmd/coreda-bench -workers 1 chaos > /tmp/coreda-soak-w1.txt
go run ./cmd/coreda-bench -workers 4 chaos > /tmp/coreda-soak-w4.txt
diff /tmp/coreda-soak-w1.txt /tmp/coreda-soak-w4.txt
rm -f /tmp/coreda-soak-w1.txt /tmp/coreda-soak-w4.txt

# Shard-count parity gate: a race-enabled 1000-household fleet soak must
# produce byte-identical output (stats + policy digest; stdout
# deliberately omits the shard count) whether the tenants share one shard
# event loop or are spread across eight. This is the end-to-end proof
# that internal/fleet's concurrency never leaks into what a household
# learns.
echo "== fleet soak (shards 1 vs 4 vs 8 must match, race-enabled)"
for n in 1 4 8; do
    go run -race ./cmd/coreda-bench -households 1000 -fleet-shards "$n" fleet > "/tmp/coreda-fleet-s$n.txt"
done
diff /tmp/coreda-fleet-s1.txt /tmp/coreda-fleet-s4.txt
diff /tmp/coreda-fleet-s1.txt /tmp/coreda-fleet-s8.txt

# Golden digest gate: the runs above agreeing with each other cannot
# catch a change that drifts every shard count the same way, so the
# digest itself is pinned (internal/fleet's TestSoakGoldenDigest holds
# the same value).
golden=5abb840bf67e8c5688f5f0a21a673a73a666e877bef18e8016ef0cb5d84c7867
for n in 1 4 8; do
    if ! grep -q "policy digest  $golden\$" "/tmp/coreda-fleet-s$n.txt"; then
        echo "fleet soak at $n shards drifted from the golden digest $golden:" >&2
        cat "/tmp/coreda-fleet-s$n.txt" >&2
        exit 1
    fi
done

# Storage-format parity gate: the same soak with JSON checkpoints must
# produce the same stdout — including the policy digest, which decodes
# and canonicalizes blobs precisely so that the on-disk encoding can
# never change what a household learned.
echo "== fleet soak (store-format json must match binary, race-enabled)"
go run -race ./cmd/coreda-bench -households 1000 -store-format json fleet > /tmp/coreda-fleet-json.txt
diff /tmp/coreda-fleet-s1.txt /tmp/coreda-fleet-json.txt

# Control-plane parity gate: the same soak with the control queue
# disabled (-fleet-control inline, the pre-queue code path where each
# shard writes its evictions and checkpoints in place) must produce
# byte-identical stdout at every shard count — the proof that moving
# control work onto the queue's drain boundary changed scheduling, not
# outcomes. A further run injects failures into the queued jobs: the
# retry budget must absorb them without touching a digest (stdout
# deliberately omits control mode, job-failure rate and retry counts).
echo "== fleet soak (control queue vs inline vs jobfail must match, race-enabled)"
for n in 1 4 8; do
    go run -race ./cmd/coreda-bench -households 1000 -fleet-shards "$n" -fleet-control inline fleet > "/tmp/coreda-fleet-inline-s$n.txt"
    diff "/tmp/coreda-fleet-s$n.txt" "/tmp/coreda-fleet-inline-s$n.txt"
done
go run -race ./cmd/coreda-bench -households 1000 -fleet-jobfail 0.2 fleet > /tmp/coreda-fleet-jobfail.txt
diff /tmp/coreda-fleet-s1.txt /tmp/coreda-fleet-jobfail.txt
rm -f /tmp/coreda-fleet-s{1,4,8}.txt /tmp/coreda-fleet-json.txt \
      /tmp/coreda-fleet-inline-s{1,4,8}.txt /tmp/coreda-fleet-jobfail.txt

# Cluster kill-recovery gate: the same soak split across 3 worker
# processes — one of which is SIGKILLed mid-run, after applying a round
# locally but before its replication barrier — must still produce a
# policy digest byte-identical to the fault-free single-process run.
# Survivors adopt the victim's households from their replica blobs and
# the driver replays the killed round. The bench "cluster" mode then
# re-checks fault-free digest parity at 1, 2 and 3 processes and exits
# non-zero on any divergence.
echo "== cluster soak (3 procs, SIGKILL one peer, digest parity, race-enabled)"
go test -race -count 1 -run 'TestClusterSoakMatchesSingleProcess|TestClusterSoakSurvivesSigkill' ./internal/cluster/
go run ./cmd/coreda-bench -cluster-households 24 -cluster-sessions 4 cluster

echo "ok"
