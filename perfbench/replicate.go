package main

import (
	"crypto/sha256"
	"net"
	"runtime"
	"sync"
	"time"

	"coreda/internal/cluster"
	"coreda/internal/fleet"
	"coreda/internal/notify"
	"coreda/internal/store"
)

const (
	replicateHouseholds = 3000
	replicateNodes      = 2
	replicateK          = 2 // replica count asked for; a 2-node ring clamps it to 1
)

// member is one in-process cluster node with its own fleet and local
// checkpoint store. The store is in memory: replica pushes are fsynced
// writes, and on the disk of a shared host their latency swung the
// workload's throughput by a third between runs; what replicate measures
// is the peer protocol and the barrier.
type member struct {
	raw    store.Backend // the node's local store, unwrapped
	timed  *timedBackend
	bus    *notify.Bus
	counts *busCounts
	node   *cluster.Node
	f      *fleet.Fleet
	owned  []int // soak households this node owns
	// deliverNs/delivers total the traced Deliver calls of this node's
	// rounds.
	deliverNs, delivers int64
}

func runReplicate(p params) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}}
	if p.trace {
		m.tr = newTracer()
	}
	in := newSoakInput(p.seed, replicateHouseholds)
	m.note("replicate: %d soak households x %d sessions split by Node.Owns across %d in-process cluster nodes (K=%d, loopback peer links); round k delivers session k of every household, then Fleet.Flush + Node.Sync on both nodes; passes until %d s timed",
		len(in.names), soakSessions, replicateNodes, replicateK, p.seconds)
	var digests []string
	for pass := 0; pass < minPasses || m.win.wall < time.Duration(p.seconds)*time.Second; pass++ {
		d, err := replicatePass(p, m, in)
		if err != nil {
			return nil, err
		}
		digests = append(digests, d)
	}
	m.checkDigests(p, in, digests)
	return m, nil
}

// newCluster builds and starts the nodes, their fleets and peer links,
// and splits the soak's households by ownership.
func newCluster(p params, m *measurement, in *soakInput) ([]*member, error) {
	var lns []net.Listener
	var peers []string
	for i := 0; i < replicateNodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		peers = append(peers, ln.Addr().String())
	}
	soak := newSoakTenants(p.seed, len(in.names), m.tr)
	var ms []*member
	fail := func(err error) ([]*member, error) {
		closeCluster(ms)
		for _, l := range lns[len(ms):] {
			l.Close()
		}
		return nil, err
	}
	for i := 0; i < replicateNodes; i++ {
		mb := &member{bus: notify.NewBus(), raw: store.NewMemBackend()}
		local := mb.raw
		if m.tr != nil {
			mb.timed = newTimedBackend(mb.raw, m.tr)
			local = mb.timed
			mb.counts = countBus(mb.bus)
		}
		var err error
		mb.node, err = cluster.NewNode(cluster.NodeConfig{
			PeerAddr: peers[i],
			NodeAddr: peers[i],
			Peers:    peers,
			Replicas: replicateK,
			Local:    local,
			Seed:     p.seed,
			Listener: lns[i],
			Bus:      mb.bus,
		})
		if err == nil {
			mb.f, err = fleet.New(fleet.Config{Backend: mb.node.Backend(), IdleEvict: 10 * time.Minute, Bus: mb.bus, NewSystem: soak.config})
		}
		if err != nil {
			if mb.counts != nil {
				mb.counts.close()
			}
			return fail(err)
		}
		mb.f.Start()
		mb.node.AttachFleet(mb.f)
		ms = append(ms, mb)
		if err := mb.node.Start(); err != nil {
			return fail(err)
		}
	}
	for h, name := range in.names {
		for _, mb := range ms {
			if mb.node.Owns(name) {
				mb.owned = append(mb.owned, h)
				break
			}
		}
	}
	return ms, nil
}

// closeCluster stops every member's fleet and node.
func closeCluster(ms []*member) {
	for _, mb := range ms {
		mb.f.Stop()
		mb.node.Close()
		if mb.counts != nil {
			mb.counts.close()
		}
	}
}

// replicatePass sets up a fresh two-node cluster, runs the soak's rounds
// through it, and returns the combined policy digest.
func replicatePass(p params, m *measurement, in *soakInput) (string, error) {
	runtime.GC() // each pass starts from a collected heap, not the last pass's garbage
	t0 := time.Now()
	ms, err := newCluster(p, m, in)
	if err != nil {
		return "", err
	}
	defer closeCluster(ms)
	m.setup = append(m.setup, time.Since(t0).Seconds())
	var res residency
	res.measureBase()

	var pass meter
	errs := make([]error, len(ms))
	m.win.begin()
	pass.begin()
	for round := 0; round < soakSessions; round++ {
		if round == soakSessions/2 {
			// Peak residency: two sessions in, before the idle gap that
			// evicts every household.
			m.win.end()
			pass.end()
			resident := 0
			for _, mb := range ms {
				resident += mb.f.Stats().Resident
			}
			res.at(resident)
			m.win.begin()
			pass.begin()
		}
		var wg sync.WaitGroup
		for i, mb := range ms {
			wg.Add(1)
			go func(i int, mb *member) {
				defer wg.Done()
				if err := mb.round(m.tr, in, round); err != nil && errs[i] == nil {
					errs[i] = err
				}
			}(i, mb)
		}
		wg.Wait()
	}
	m.win.end()
	pass.end()
	m.addPass(&pass, in.usage)
	for _, err := range errs {
		if err != nil {
			m.failAll("replicate: %v", err)
		}
	}
	m.resBytes, m.resObj = append(m.resBytes, res.bytesPer), append(m.resObj, res.objectsPer)

	// Each household's policy is read from its owner's local store and
	// combined exactly as fleet.Digest combines a single fleet's.
	sums := make(map[string][sha256.Size]byte, len(in.names))
	for _, mb := range ms {
		for _, h := range mb.owned {
			sum, err := fleet.CheckpointSum(mb.raw, in.names[h])
			if err != nil {
				m.failAll("replicate: %v", err)
				continue
			}
			sums[in.names[h]] = sum
		}
	}
	if m.tr != nil {
		for _, mb := range ms {
			s0 := time.Now()
			mb.f.Stop()
			m.tr.add("fleet.stop", 0, int64(time.Since(s0)), 0)
			mb.counts.close()
			addStoreCounts(m, mb.timed, mb.counts, mb.bus, mb.f.Stats())
			mb.counts = nil // closed; closeCluster must not close it again
			m.deliverNs += mb.deliverNs
			m.delivers += mb.delivers
			st := mb.node.Backend().Stats()
			m.layer["cluster.replicated"] += float64(st.Replicated)
			m.layer["cluster.failed"] += float64(st.Failed)
			m.layer["cluster.degraded"] += float64(st.Degraded)
		}
	}
	return fleet.CombineDigest(sums), nil
}

// round delivers session k of every household this member owns, then
// flushes the fleet and replicates the barrier's checkpoints — the
// cluster soak worker's round, in process.
func (mb *member) round(tr *tracer, in *soakInput, k int) error {
	for _, h := range mb.owned {
		for _, ev := range in.sessions[h][k] {
			var d0 time.Time
			if tr != nil {
				d0 = time.Now()
			}
			if err := mb.f.Deliver(ev); err != nil {
				return err
			}
			if tr != nil {
				mb.deliverNs += int64(time.Since(d0))
				mb.delivers++
			}
		}
	}
	var t0 int64
	if tr != nil {
		t0 = tr.now()
	}
	mb.f.Flush()
	if tr != nil {
		t1 := tr.now()
		tr.add("fleet.flush", t0, t1, int64(k))
		mb.timed.markWave(true)
		t0 = t1
	}
	err := mb.node.Sync()
	if tr != nil {
		tr.add("cluster.sync", t0, tr.now(), int64(k))
	}
	return err
}
