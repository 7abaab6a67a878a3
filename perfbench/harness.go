package main

import (
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"coreda"
	"coreda/internal/fleet"
	"coreda/internal/notify"
	"coreda/internal/store"
)

// pretrainEpisodes is how many canonical tea-making episodes each
// assist household learns in setup. An untrained tenant never reminds
// (the planner predicts only actions with positive value), so without
// this the user-visible path would carry no reminders at all.
const pretrainEpisodes = 30

// stepGap is the mean virtual time between a household's tool uses,
// matching the fleet soak's 3-7 s step gaps.
const stepGap = 5 * time.Second

// cause identifies the usage frame behind a wrong-tool reminder: the
// household's n-th extracted step (0-based) and that step's tool.
type cause struct {
	n    int32
	tool uint16
}

// hooks are the SystemConfig callbacks of one assist population. Per
// household they count extracted steps and record, in order, which step
// caused each wrong-tool reminder; the traced run also records the wall
// times of that OnStep and of the OnReminder. A household lives on one
// shard loop, so each per-household slot has one writer; the reminder
// counters are atomic because the gate reads them while the fleet runs.
type hooks struct {
	epoch     time.Time
	trace     bool
	wrongTool []atomic.Int32
	idle      []atomic.Int32
	steps     []int32
	causes    [][]cause
	stepAt    []int64
	spans     [][][2]int64 // (OnStep, OnReminder), ns since epoch
}

func newHooks(n int, trace bool) *hooks {
	k := &hooks{
		epoch:     time.Now(),
		trace:     trace,
		wrongTool: make([]atomic.Int32, n),
		idle:      make([]atomic.Int32, n),
		steps:     make([]int32, n),
		causes:    make([][]cause, n),
	}
	for h := range k.causes {
		k.causes[h] = make([]cause, 0, 64)
	}
	if trace {
		k.stepAt = make([]int64, n)
		k.spans = make([][][2]int64, n)
	}
	return k
}

// systemConfig is household h's tenant: tea-making on its own tool
// UIDs, assist mode with learning kept on, as cmd/coreda-fleet runs it
// with -mode assist -keep-learning.
func (k *hooks) systemConfig(pop *population, h int, seed int64) coreda.SystemConfig {
	name := pop.names[h]
	return coreda.SystemConfig{
		Activity:     pop.activity(h),
		UserName:     name,
		DefaultMode:  coreda.ModeAssist,
		KeepLearning: true,
		Seed:         fleet.SeedFor(seed, name),
		OnStep: func(e coreda.StepEvent) {
			if e.Idle {
				return
			}
			k.steps[h]++
			if k.trace {
				k.stepAt[h] = int64(time.Since(k.epoch))
			}
		},
		OnReminder: func(r coreda.Reminder) {
			if r.Trigger != coreda.TriggerWrongTool {
				k.idle[h].Add(1)
				return
			}
			k.causes[h] = append(k.causes[h], cause{n: k.steps[h] - 1, tool: uint16(r.WrongTool)})
			if k.trace {
				k.spans[h] = append(k.spans[h], [2]int64{k.stepAt[h], int64(time.Since(k.epoch))})
			}
			k.wrongTool[h].Add(1)
		},
	}
}

// counts snapshots the per-household reminder counters.
func (k *hooks) counts() (wt, idle []int32) {
	wt = make([]int32, len(k.wrongTool))
	idle = make([]int32, len(k.idle))
	for h := range wt {
		wt[h], idle[h] = k.wrongTool[h].Load(), k.idle[h].Load()
	}
	return wt, idle
}

// pretrain teaches every household of pop its canonical routine through
// the fleet's public Do hook, admitting the tenants.
func pretrain(f *fleet.Fleet, pop *population) error {
	for h, name := range pop.names {
		routine := pop.activity(h).CanonicalRoutine()
		eps := make([][]coreda.StepID, pretrainEpisodes)
		for i := range eps {
			eps[i] = routine
		}
		if err := f.Do(name, func(t *fleet.Tenant) error { return t.System.TrainEpisodes(eps) }); err != nil {
			return fmt.Errorf("pretrain %s: %w", name, err)
		}
	}
	return nil
}

// stack is the user-visible serving path for one assist population,
// configured like cmd/coreda-fleet -mode assist -keep-learning: a fleet
// over an in-memory checkpoint store, a fleet.Server with its clock pump
// and periodic checkpoint waves on a loopback listener, and the gateways
// driving it.
type stack struct {
	pop    *population
	hooks  *hooks
	led    *ledger
	bus    *notify.Bus
	timed  *timedBackend // nil unless the store is traced
	counts *busCounts    // nil unless traced
	f      *fleet.Fleet
	srv    *fleet.Server
	ln     net.Listener
	gws    []*gateway
	served chan error
	start  time.Time
}

// stackSpec configures a stack.
type stackSpec struct {
	traffic   trafficSpec
	waveEvery time.Duration // periodic checkpoint wave interval
	// tr, when non-nil, makes the stack traced: hook spans, client codec
	// times, store timing and bus counts.
	tr *tracer
}

// newStack builds the fleet, pretrains every household, then starts the
// server and connects and registers the gateways. Pretraining admits
// every household, so res, if non-nil, measures peak residency around
// it.
func newStack(seed int64, pop *population, sched [][]entry, spec stackSpec, res *residency) (*stack, error) {
	trace := spec.tr != nil
	s := &stack{pop: pop, hooks: newHooks(len(pop.names), trace), bus: notify.NewBus(), served: make(chan error, 1)}
	var backend store.Backend = store.NewMemBackend()
	if trace {
		s.timed = newTimedBackend(backend, spec.tr)
		backend = s.timed
		s.counts = countBus(s.bus)
	}
	index := pop.index()
	f, err := fleet.New(fleet.Config{
		Backend:   backend,
		IdleEvict: 30 * time.Minute,
		Bus:       s.bus,
		NewSystem: func(household string) (coreda.SystemConfig, error) {
			h, ok := index[household]
			if !ok {
				return coreda.SystemConfig{}, fmt.Errorf("unknown household %q", household)
			}
			return s.hooks.systemConfig(pop, h, seed), nil
		},
	})
	if err != nil {
		return nil, err
	}
	s.f = f
	cfg := fleet.ServeConfig{
		Speed:           speedFor(stepGap, spec.traffic.Rate, len(pop.names)),
		CheckpointEvery: spec.waveEvery,
		WriteTimeout:    10 * time.Second,
	}
	if s.timed != nil {
		cfg.AfterFlush = func() { s.timed.markWave(true) }
	}
	if s.srv, err = fleet.NewServer(f, cfg); err != nil {
		return nil, err
	}
	if res != nil {
		res.measureBase()
	}
	if err := pretrain(f, pop); err != nil {
		f.Stop()
		return nil, err
	}
	if res != nil {
		res.at(f.Stats().Resident)
	}
	if s.led, err = newLedger(pop); err != nil {
		f.Stop()
		return nil, err
	}
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		f.Stop()
		return nil, err
	}
	go func() { s.served <- s.srv.Serve(s.ln) }()
	go s.srv.Run()
	for c := 0; c < spec.traffic.Conns; c++ {
		conn, err := net.Dial("tcp", s.ln.Addr().String())
		if err == nil {
			g := newGateway(conn, s.led, sched[c], trace)
			s.gws = append(s.gws, g)
			var mine []int
			for h := c; h < len(pop.names); h += spec.traffic.Conns {
				mine = append(mine, h)
			}
			err = g.register(mine)
		}
		if err != nil {
			s.shutdown()
			return nil, err
		}
	}
	return s, nil
}

// run starts every gateway's schedule now and returns a channel closed
// when all writers have finished.
func (s *stack) run() <-chan struct{} {
	s.start = time.Now()
	all := make(chan struct{})
	var dones []<-chan struct{}
	for _, g := range s.gws {
		dones = append(dones, g.run(s.start))
	}
	go func() {
		for _, d := range dones {
			<-d
		}
		close(all)
	}()
	return all
}

// settle waits until every reply to the sent traffic has been read and
// the reminder hooks agree with the LEDs received: per household, one
// green LED per reminder and one red per wrong-tool reminder. A
// reminder can fire between any two looks (idle timers keep running),
// so it retries until the hook counts stood still across a fleet
// barrier and a sync round trip on every gateway.
func (s *stack) settle() error {
	var last error
	for attempt := 0; attempt < 50; attempt++ {
		wt1, idle1 := s.hooks.counts()
		s.f.Stats() // barrier: every LED written by a finished handler is on its socket
		for c, g := range s.gws {
			if err := g.sync(c, uint16(60000+attempt), 10*time.Second); err != nil {
				return err
			}
		}
		wt2, idle2 := s.hooks.counts()
		if !slices.Equal(wt1, wt2) || !slices.Equal(idle1, idle2) {
			last = fmt.Errorf("reminders still firing")
			continue
		}
		last = nil
		for h := range wt2 {
			greens, reds := s.led.greens[h].Load(), s.led.reds[h].Load()
			if greens != wt2[h]+idle2[h] || reds != wt2[h] {
				last = fmt.Errorf("household %s: %d green + %d red LEDs for %d wrong-tool + %d idle reminders",
					s.pop.names[h], greens, reds, wt2[h], idle2[h])
				break
			}
		}
		if last == nil {
			return nil
		}
	}
	return last
}

// shutdown stops the server (closing every gateway connection) and the
// fleet, waits for the accept loop and the gateway readers, and returns
// how long the fleet's final Stop took.
func (s *stack) shutdown() time.Duration {
	s.srv.Stop()
	s.ln.Close()
	<-s.served
	if s.timed != nil {
		s.timed.markWave(false) // a partial periodic wave, if any
	}
	t0 := time.Now()
	s.f.Stop()
	stop := time.Since(t0)
	for _, g := range s.gws {
		g.conn.Close()
		if !s.start.IsZero() {
			<-g.done
		}
	}
	if s.counts != nil {
		s.counts.close()
	}
	return stop
}

// frontReport is the outcome of one stack's traffic.
type frontReport struct {
	ack, remind, lag   []int64
	stages             stageSamples
	usageSent, acked   int
	hellos, beats      int
	wrongTool, idle    int
	badAcks, badLEDs   int
	badFrames, unacked int
	unmatched          int // wrong-tool reminders not matched to their frame and red LED
	reads, frames      int64
	encNs, decNs       []int64
}

// collect gathers every gateway's samples after shutdown, checks that
// each sent frame the server acks was acked exactly once, and matches
// each wrong-tool reminder to its causing usage frame and its red LED.
func (s *stack) collect() frontReport {
	var r frontReport
	starts := make([][]entry, len(s.pop.names)) // per household, sent UsageStarts in order
	for _, g := range s.gws {
		sent := int(g.sent.Load())
		for i := 0; i < sent; i++ {
			switch e := g.sched[i]; e.kind {
			case kindHello:
				r.hellos++
			case kindBeat:
				r.beats++
			case kindStart:
				starts[e.hh] = append(starts[e.hh], e)
				r.usageSent++
			default:
				r.usageSent++
			}
		}
		acked := g.ackIdx
		for acked < sent && !g.sched[acked].acked() {
			acked++
		}
		r.unacked += sent - acked
		r.ack = append(r.ack, g.ackLat...)
		r.lag = append(r.lag, g.lag...)
		r.badAcks += g.badAcks
		r.badLEDs += g.badLEDs
		r.badFrames += g.badFrames
		r.reads += g.reads
		r.frames += g.frames
		r.encNs = append(r.encNs, g.encNs...)
		r.decNs = append(r.decNs, g.decNs...)
	}
	r.acked = len(r.ack)
	offset := int64(s.start.Sub(s.hooks.epoch))
	for h := range s.pop.names {
		r.wrongTool += int(s.hooks.wrongTool[h].Load())
		r.idle += int(s.hooks.idle[h].Load())
		causes, reds := s.hooks.causes[h], s.led.redAt[h]
		for k, c := range causes {
			if k >= len(reds) || int(c.n) >= len(starts[h]) || starts[h][c.n].uid != c.tool {
				r.unmatched++
				continue
			}
			t0, t3 := starts[h][c.n].at, reds[k]
			r.remind = append(r.remind, t3-t0)
			if s.hooks.trace {
				t1, t2 := s.hooks.spans[h][k][0]-offset, s.hooks.spans[h][k][1]-offset
				r.stages.add(t1-t0, t2-t1, t3-t2)
			}
		}
		if len(reds) > len(causes) {
			r.unmatched += len(reds) - len(causes)
		}
	}
	return r
}

// failures counts the gate violations of a stack's traffic: frames not
// acked exactly once, LEDs for unknown tools, undecodable replies, and
// wrong-tool reminders not matched to their usage frame and red LED.
func (r *frontReport) failures() int {
	return r.unacked + r.badAcks + r.badLEDs + r.badFrames + r.unmatched
}

// addStoreCounts folds a traced fleet's store counters, bus tallies and
// control-plane stats into the per-layer values.
func addStoreCounts(m *measurement, timed *timedBackend, counts *busCounts, bus *notify.Bus, st fleet.Stats) {
	if timed != nil {
		c := timed.counts()
		m.layer["store.put_count"] += float64(c.puts)
		m.layer["store.get_count"] += float64(c.gets)
		m.layer["store.fsync_count"] += float64(c.fsyncs)
		m.layer["store.get_fallbacks"] += float64(c.fallbacks)
		m.layer["store.bytes_written"] += float64(c.bytes)
	}
	if counts != nil {
		m.layer["notify.eviction_queued"] += float64(counts.evictions)
		m.layer["notify.checkpoint_files"] += float64(counts.files)
	}
	m.layer["notify.dropped"] += float64(bus.Stats().Dropped)
	m.layer["queue.job_retries"] += float64(st.JobRetries)
	m.layer["fleet.writeback_failures"] += float64(st.WritebackFailures)
}

// busCounts tallies the control-plane events of a traced run.
type busCounts struct {
	l                *notify.Listener
	done             chan struct{}
	evictions, files int
}

func countBus(bus *notify.Bus) *busCounts {
	c := &busCounts{l: bus.Subscribe(4096, notify.EvictionQueued, notify.CheckpointDone), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for ev := range c.l.C() {
			switch ev.Kind {
			case notify.EvictionQueued:
				c.evictions++
			case notify.CheckpointDone:
				c.files += ev.Count
			}
		}
	}()
	return c
}

// close stops the subscriber and waits for it; the counts are final
// afterwards.
func (c *busCounts) close() {
	c.l.Close()
	<-c.done
}
