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
# the lazy RNG register (TestRNGLazyAlloc), the live heap a resident
# household holds (TestTenantResidentAllocBudget), what a checkpoint
# re-admission allocates (TestTenantReadmitAllocBudget), the learn-mode
# session step (TestOnlineSessionStepAlloc) and the per-tool usage
# statistics (TestDurationsObserveAlloc), and activity validation
# (TestActivityValidateAllocFree). The
# hotalloc analyzer rides in the same phase — it names the escaping
# expression when a //coreda:hotpath function regresses, which an
# AllocsPerRun count never does.
echo "== alloc budgets (no race)"
go test -run 'Alloc' ./internal/wire/ ./internal/sim/ ./internal/fleet/ ./internal/rtbridge/ ./internal/store/ ./internal/core/ ./internal/stats/ ./internal/adl/
go run ./cmd/coreda-vet -only hotalloc ./...

# Advance golden + RNG parity gate: the due-time tenant index must
# reproduce the committed digest of a tick-driven workload at 1/4/8
# shards (TestAdvanceGoldenDigest, recorded when the index and the
# full sweep it replaced still agreed), and must floor a late event to
# the tick that preceded it (TestLateEventFlooredToTick). The
# differential tests pin the scheduler against a naive reference
# implementation, and sim.RNG's ported source against math/rand's own
# seeded source (every draw method, edge and random seeds, the
# multiply-and-fold seeding step against Schrage's, the stream-seed
# derivation, and every stopping point around the lazy register's
# window and block boundaries, fresh and reseeded).
echo "== advance golden + RNG parity (golden digest, tick floor, port vs stdlib, race-enabled)"
go test -race -count 1 -run 'TestAdvanceGoldenDigest|TestLateEventFlooredToTick|TestDueHeap' ./internal/fleet/
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

# Fleet golden gate: a race-enabled 1000-household soak must print
# exactly the committed golden stdout (stats + policy digest; stdout
# deliberately omits the shard count and job-failure rate) whether the
# tenants share one shard event loop or are spread across eight, and
# with chaos failures injected into the control-queue jobs, which the
# retry budget must absorb. Comparing runs with each other cannot catch
# a drift shared by every run; a committed golden can.
# internal/fleet's TestSoakGoldenDigest pins the same digest and counts.
echo "== fleet soak (golden stdout at shards 1/4/8 and jobfail 0.2, race-enabled)"
golden=cmd/coreda-bench/testdata/fleet-seed1-h1000.golden
for run in "-fleet-shards 1" "-fleet-shards 4" "-fleet-shards 8" "-fleet-jobfail 0.2"; do
    # shellcheck disable=SC2086 # $run is two words on purpose
    go run -race ./cmd/coreda-bench -households 1000 $run fleet > /tmp/coreda-fleet.txt
    if ! diff "$golden" /tmp/coreda-fleet.txt; then
        echo "fleet soak ($run) drifted from $golden" >&2
        exit 1
    fi
done
rm -f /tmp/coreda-fleet.txt

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
