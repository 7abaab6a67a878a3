package main

import (
	"runtime"
	"time"
)

// serve workload shape.
const (
	serveHouseholds = 256
	serveRate       = 2000.0 // offered usage frames per second
	serveBeatRate   = 250.0  // offered heartbeats per second
	serveSetups     = 5      // set-ups per run; setup_s is their median
	serveWaves      = 4      // periodic checkpoint waves per run
	maxConns        = 2      // gateway connections, further capped by host CPUs
)

// conns is the gateway connection count: one load process never opens
// more connections than the host has CPUs.
func conns() int { return min(maxConns, runtime.NumCPU()) }

// waveEvery spaces the periodic checkpoint waves so a run sees
// serveWaves of them.
func waveEvery(p params) time.Duration {
	return time.Duration(p.seconds) * time.Second / (serveWaves + 1)
}

func runServe(p params) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}}
	if p.trace {
		m.tr = newTracer()
	}
	pop := newPopulation("s", serveHouseholds, 1000)
	traffic := trafficSpec{Rate: serveRate, BeatRate: serveBeatRate, Conns: conns(), Length: time.Duration(p.seconds) * time.Second}
	sched := buildSchedule(p.seed, pop, traffic)
	spec := stackSpec{traffic: traffic, waveEvery: waveEvery(p), tr: m.tr}
	m.note("serve: %d households, %d connections, offered %.0f usage frames/s + %.0f heartbeats/s (Poisson, open loop), speed %.3gx, %d s, checkpoint wave every %v",
		len(pop.names), traffic.Conns, traffic.Rate, traffic.BeatRate, speedFor(stepGap, traffic.Rate, len(pop.names)), p.seconds, spec.waveEvery)

	setups := serveSetups
	if p.trace {
		setups = 1
	}
	// Residency is measured in the first set-up only: a later one would
	// count memory its predecessor's goroutines release concurrently.
	// Pretraining admits every household and none is evicted during the
	// run, so residency peaks in set-up.
	var (
		s   *stack
		res residency
	)
	for i := 0; i < setups; i++ {
		if s != nil {
			s.shutdown()
		}
		var err error
		var measure *residency
		if i == 0 {
			measure = &res
		}
		runtime.GC() // each set-up starts from a collected heap
		t0 := time.Now()
		if s, err = newStack(p.seed, pop, sched, spec, measure); err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(t0).Seconds())
		if i == 0 {
			m.setup[0] -= res.pause.Seconds()
		}
	}
	m.resBytes, m.resObj = append(m.resBytes, res.bytesPer), append(m.resObj, res.objectsPer)

	m.win.begin()
	<-s.run()
	m.win.end()
	if err := s.settle(); err != nil {
		m.failAll("serve: %v", err)
	}
	stop := s.shutdown()
	r := s.collect()
	m.addFront(r)
	m.events = int64(r.usageSent)
	m.passEPS = append(m.passEPS, float64(r.acked)/m.win.wall.Seconds())
	m.passCPU = append(m.passCPU, float64(m.win.cpu.Microseconds())/float64(max(r.usageSent, 1)))
	if p.trace {
		m.tr.add("fleet.stop", 0, int64(stop), 0)
		addStoreCounts(m, s.timed, s.counts, s.bus, s.f.Stats())
		tp, pl, wb, rm := summarize(m.stages.transport, 99), summarize(m.stages.plan, 99), summarize(m.stages.writeback, 99), summarize(m.stages.remind, 99)
		if ratio, ok := stageSumOK([]float64{float64(tp.P50), float64(pl.P50), float64(wb.P50)}, float64(rm.P50)); !ok {
			m.gate("serve: stage medians sum to %.3f x remind p50, outside ±%.0f%%", ratio, stageTolerance*100)
		}
	}
	return m, nil
}
