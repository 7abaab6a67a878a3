package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"coreda"
	"coreda/internal/fleet"
	"coreda/internal/notify"
	"coreda/internal/store"
)

// Shapes shared by churn and replicate.
const (
	soakSessions = 4
	minPasses    = 3
)

const churnHouseholds = 5000

// soakInput is a fleet soak's traffic, generated from the seed before
// any timing: exactly fleet.Soak's per-household event streams.
type soakInput struct {
	cfg      fleet.SoakConfig
	names    []string
	sessions [][][]fleet.Event // per household, per session
	usage    int64
}

func newSoakInput(seed int64, households int) *soakInput {
	in := &soakInput{cfg: fleet.SoakConfig{Seed: seed, Households: households, Sessions: soakSessions}}
	for i := 0; i < households; i++ {
		name := fleet.SoakHousehold(i)
		s := fleet.SoakSessions(in.cfg, name)
		in.names = append(in.names, name)
		in.sessions = append(in.sessions, s)
		for _, sess := range s {
			for _, ev := range sess {
				if ev.Kind == fleet.EventUsage {
					in.usage++
				}
			}
		}
	}
	return in
}

// soakTenants configures the soak's households exactly as fleet.Soak
// does, so their checkpoints digest identically. In a traced run each
// admission is spanned from the NewSystem call to the household's
// OnSessionStart.
type soakTenants struct {
	seed    int64
	tr      *tracer
	admitAt []int64 // per household, written on its shard loop
}

func newSoakTenants(seed int64, households int, tr *tracer) *soakTenants {
	s := &soakTenants{seed: seed, tr: tr}
	if tr != nil {
		s.admitAt = make([]int64, households)
	}
	return s
}

func (s *soakTenants) config(household string) (coreda.SystemConfig, error) {
	cfg := coreda.SystemConfig{
		Activity: coreda.TeaMaking(),
		UserName: household,
		Seed:     fleet.SeedFor(s.seed, household),
	}
	if s.tr == nil {
		return cfg, nil
	}
	i, err := strconv.Atoi(household[1:])
	if err != nil || i < 0 || i >= len(s.admitAt) {
		return coreda.SystemConfig{}, fmt.Errorf("unknown household %q", household)
	}
	s.admitAt[i] = s.tr.now()
	cfg.OnSessionStart = func(coreda.Mode) {
		if t0 := s.admitAt[i]; t0 != 0 {
			s.tr.add("fleet.admit", t0, s.tr.now(), int64(i))
			s.admitAt[i] = 0
		}
	}
	return cfg, nil
}

func runChurn(p params) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}}
	if p.trace {
		m.tr = newTracer()
	}
	in := newSoakInput(p.seed, churnHouseholds)
	m.note("churn: %d soak households x %d sessions (learn mode; each evicted and re-admitted mid-life, evicted again at the end) delivered closed-loop round-robin through Fleet.Deliver; passes until %d s timed",
		len(in.names), soakSessions, p.seconds)

	// Each household's whole life, then one final advance past the idle
	// deadline, so the last checkpoints are written by eviction waves
	// rather than by Stop.
	streams := make([][]fleet.Event, len(in.names))
	for h, sessions := range in.sessions {
		for _, sess := range sessions {
			streams[h] = append(streams[h], sess...)
		}
		last := streams[h][len(streams[h])-1].At
		streams[h] = append(streams[h], fleet.Event{Household: in.names[h], At: last + 10*time.Minute + time.Second, Kind: fleet.EventAdvance})
	}
	var digests []string
	for pass := 0; pass < minPasses || m.win.wall < time.Duration(p.seconds)*time.Second; pass++ {
		d, err := churnPass(p, m, in, streams)
		if err != nil {
			return nil, err
		}
		digests = append(digests, d)
	}
	m.checkDigests(p, in, digests)
	return m, nil
}

// checkDigests compares every pass's policy digest with fleet.Soak's
// for the same seed and size.
func (m *measurement) checkDigests(p params, in *soakInput, digests []string) {
	dir, err := workDir(p.out, "reference")
	if err != nil {
		m.failAll("reference soak: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	cfg := in.cfg
	cfg.Dir = dir
	ref, err := fleet.Soak(cfg)
	if err != nil {
		m.failAll("reference soak: %v", err)
		return
	}
	for i, d := range digests {
		if d != ref.Digest {
			m.failAll("pass %d: policy digest %.12s differs from fleet.Soak's %.12s", i, d, ref.Digest)
			return
		}
	}
	m.note("policy digest %.16s… equals fleet.Soak's on all %d passes", ref.Digest, len(digests))
}

// churnPass sets up a fresh fleet, delivers the streams through it once,
// round-robin over households like fleet.Soak, and returns the soak's
// policy digest. fleet.SoakSessions gives every household the same
// shape, so the streams are all one length.
func churnPass(p params, m *measurement, in *soakInput, streams [][]fleet.Event) (string, error) {
	runtime.GC() // each pass starts from a collected heap, not the last pass's garbage
	t0 := time.Now()
	raw := store.NewMemBackend()
	var backend store.Backend = raw
	var timed *timedBackend
	bus := notify.NewBus()
	var counts *busCounts
	if m.tr != nil {
		timed = newTimedBackend(raw, m.tr)
		backend = timed
		counts = countBus(bus)
	}
	soak := newSoakTenants(p.seed, len(in.names), m.tr)
	f, err := fleet.New(fleet.Config{Backend: backend, IdleEvict: 10 * time.Minute, Bus: bus, NewSystem: soak.config})
	if err != nil {
		return "", err
	}
	f.Start()
	m.setup = append(m.setup, time.Since(t0).Seconds())

	const peakAt = 2 * 8 // after two sessions: every household resident, none yet evicted
	var res residency
	res.measureBase()

	var pass meter
	var deliverErr error
	m.win.begin()
	pass.begin()
	for i := 0; i < len(streams[0]) && deliverErr == nil; i++ {
		if i == peakAt {
			m.win.end()
			pass.end()
			res.at(f.Stats().Resident)
			m.win.begin()
			pass.begin()
		}
		for _, st := range streams {
			if m.tr != nil {
				d0 := time.Now()
				deliverErr = f.Deliver(st[i])
				m.deliverNs += int64(time.Since(d0))
				m.delivers++
			} else {
				deliverErr = f.Deliver(st[i])
			}
			if deliverErr != nil {
				break
			}
		}
	}
	// Eviction writes are not a flush wave; only Stop's final wave is.
	if timed != nil {
		timed.markWave(false)
	}
	s0 := time.Now()
	f.Stop()
	stop := time.Since(s0)
	m.win.end()
	pass.end()
	if timed != nil {
		timed.markWave(true)
	}
	m.addPass(&pass, in.usage)
	if deliverErr != nil {
		m.failAll("churn: deliver: %v", deliverErr)
	}
	m.resBytes, m.resObj = append(m.resBytes, res.bytesPer), append(m.resObj, res.objectsPer)
	if m.tr != nil {
		m.tr.add("fleet.stop", 0, int64(stop), 0)
		if counts != nil {
			counts.close()
		}
		addStoreCounts(m, timed, counts, bus, f.Stats())
	}
	digest, err := fleet.Digest(raw)
	if err != nil {
		m.failAll("churn: digest: %v", err)
	}
	return digest, nil
}

// workDir creates a fresh directory for the reference soak's
// checkpoints under out/work.
func workDir(out, name string) (string, error) {
	work := filepath.Join(out, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(work, name+"-")
}
