// Package fleet is CoReDA's multi-tenant serving runtime: it multiplexes
// many households — each a full Hub + sim.Scheduler + learned policies —
// across a fixed pool of shard event loops, so one process serves
// thousands of homes instead of one.
//
// Concurrency model: households are hashed onto shards (ShardOf), and
// each shard runs exactly one goroutine that owns every tenant resident
// on it. A tenant therefore stays single-threaded, exactly as the
// Hub/System contract requires; the shard loop is the only place its
// scheduler is pumped. Tenants share no state, so a tenant's learned
// policy depends only on its own event sequence — which is why per-tenant
// policy files are byte-identical at any shard count (the repo's
// signature determinism guarantee, gated in scripts/check.sh).
//
// Tenants are admitted lazily: the first event for an unknown household
// builds its stack and, if a checkpoint blob exists in the storage
// backend (store.Backend; the local-dir backend over Config.Dir by
// default), restores the learned policy from it (crash recovery and
// idle-eviction recovery share this path). Idle tenants are evicted with
// a final checkpoint; periodic batch checkpointing streams every dirty
// tenant of a shard through the backend's atomic, generation-rotating
// writes.
//
// Like parrun for the experiments layer, fleet is a sanctioned
// concurrency boundary of the otherwise single-threaded simulation
// stack; everything a shard loop calls into obeys the single-threaded
// rule.
package fleet

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coreda"
	"coreda/internal/notify"
	"coreda/internal/queue"
	"coreda/internal/reminding"
	"coreda/internal/retry"
	"coreda/internal/store"
	"coreda/internal/wire"
)

// Control-plane job classes and priorities: eviction writebacks drain
// before checkpoint writes at a shared boundary (an evicted tenant's
// file is its final state; a dirty tenant's file will be rewritten).
const (
	classEviction   queue.Class = "eviction"
	classCheckpoint queue.Class = "checkpoint"
	priEviction                 = 0
	priCheckpoint               = 1
)

// ctlRetry is the control-job retry schedule: three attempts with a
// sub-millisecond backoff, enough to ride out transient filesystem
// hiccups without stretching a drain boundary.
func ctlRetry() retry.Policy {
	return retry.Policy{Attempts: 3, Base: 250 * time.Microsecond, Cap: time.Millisecond, Jitter: 0.5}
}

// Config parameterizes a Fleet.
type Config struct {
	// Shards is the number of shard event loops (and goroutines)
	// households are hashed across. Zero means runtime.GOMAXPROCS(0).
	Shards int
	// Dir is the checkpoint directory: each household persists to
	// <Dir>/<household>.ckpt via the store's crash-safe rotation
	// (pre-binary <household>.json checkpoints load and migrate
	// transparently). Ignored when Backend is set.
	Dir string
	// Backend overrides where checkpoints live. Nil means the local-dir
	// backend rooted at Dir.
	Backend store.Backend
	// NewSystem builds the system configuration for a household admitted
	// for the first time (or re-admitted after eviction). Required. The
	// returned config's Seed should be derived from the household ID
	// (see SeedFor) so every tenant learns on its own random stream.
	NewSystem func(household string) (coreda.SystemConfig, error)
	// LEDs, if non-nil, supplies the reminder-LED sink for each admitted
	// household (the serving layer wires node connections through this).
	// A non-nil SystemConfig.LEDs from NewSystem wins.
	LEDs func(household string) reminding.LEDs
	// IdleEvict evicts a tenant whose virtual clock has advanced this
	// far past its last event, checkpointing it first. Eviction is
	// driven purely by the tenant's own virtual time, so it happens
	// identically at any shard count. Zero disables eviction.
	IdleEvict time.Duration
	// OnLog receives human-readable event lines. Calls are serialized
	// across shards; may be nil.
	OnLog func(string)
	// Bus, if non-nil, receives control-plane events (notify.TenantDirty,
	// EvictionQueued, CheckpointDone, WritebackFailed). Publishing never
	// blocks a shard loop; correctness never depends on delivery.
	Bus *notify.Bus
	// JobInject, if non-nil, supplies each shard's chaos injection hook
	// for control-queue jobs (see chaos.Plan.JobInjector).
	JobInject func(shard int) queue.InjectFunc
}

// EventKind says what a fleet event carries.
type EventKind int

// Event kinds.
const (
	// EventUsage is a tool-usage report for a household.
	EventUsage EventKind = iota + 1
	// EventNodeState is a node-liveness transition for a household tool.
	EventNodeState
	// EventAdvance only advances the household's virtual clock (firing
	// due timers, and the idle-eviction check) without delivering
	// traffic.
	EventAdvance
)

// Event is one unit of tenant traffic, routed to the owning shard.
type Event struct {
	// Household is the tenant the event belongs to.
	Household string
	// At is the event time on the household's virtual clock. Times must
	// be non-decreasing per household.
	At time.Duration
	// Kind selects which of the fields below is meaningful.
	Kind EventKind
	// Usage is the usage event (EventUsage). Its At field is overwritten
	// with the event's At.
	Usage coreda.UsageEvent
	// Tool and Online describe a node transition (EventNodeState).
	Tool   coreda.ToolID
	Online bool
}

// Stats aggregates fleet counters across shards.
type Stats struct {
	// Events counts usage events delivered to tenants.
	Events int
	// NodeStates counts node-liveness transitions delivered.
	NodeStates int
	// Admissions counts tenant spin-ups (first events and re-admissions
	// after eviction); Recovered counts the admissions that restored a
	// checkpoint file.
	Admissions int
	Recovered  int
	// Evictions counts idle tenants checkpointed and released.
	Evictions int
	// Checkpoints counts policy files written (evictions included).
	Checkpoints int
	// RecoveryErrors counts admissions whose checkpoint file (and its
	// backup) was unreadable; the tenant started fresh instead.
	RecoveryErrors int
	// Resident is the number of tenants in memory at snapshot time.
	Resident int
	// Dropped counts events discarded because their household ID was
	// invalid or admission failed.
	Dropped int
	// WritebackFailures counts queued eviction writebacks that failed
	// after retries; each resurrected its tenant and published a
	// notify.WritebackFailed event.
	WritebackFailures int
	// JobRetries counts extra control-job attempts beyond the first
	// (real failures plus chaos-injected ones).
	JobRetries int
}

func (s *Stats) add(o Stats) {
	s.Events += o.Events
	s.NodeStates += o.NodeStates
	s.Admissions += o.Admissions
	s.Recovered += o.Recovered
	s.Evictions += o.Evictions
	s.Checkpoints += o.Checkpoints
	s.RecoveryErrors += o.RecoveryErrors
	s.Resident += o.Resident
	s.Dropped += o.Dropped
	s.WritebackFailures += o.WritebackFailures
	s.JobRetries += o.JobRetries
}

// Fleet lifecycle states (Fleet.state).
const (
	fleetBuilt uint32 = iota
	fleetStarted
	fleetStopped
)

// Fleet is the sharded household runtime. Build with New, call Start,
// route traffic with Deliver, and Stop to drain and checkpoint.
type Fleet struct {
	cfg     Config
	backend store.Backend
	shards  []*shard

	// state is the lifecycle flag, atomic so the per-event Deliver fast
	// path does not serialize every caller through a mutex.
	state atomic.Uint32

	mu sync.Mutex // serializes OnLog
}

// msg is one shard-loop work item: an event, or a control closure (Do,
// flush, stop) run on the loop goroutine where tenants may be touched.
type msg struct {
	ev Event
	fn func(*shard)
}

// shard is one event loop and the tenants resident on it. All fields are
// owned by the loop goroutine after Start.
type shard struct {
	f       *Fleet
	idx     int
	in      chan msg
	done    chan struct{}
	quit    bool
	tenants map[string]*Tenant
	stats   Stats

	// lastID/lastT cache the most recently touched tenant, so a burst of
	// events from one household costs one map lookup instead of one per
	// event.
	lastID string
	lastT  *Tenant
	// dirty is the set of tenants with events since their last
	// checkpoint: batch checkpoints serialize only these households
	// instead of sweeping every resident. Invariant: a tenant is in dirty
	// iff its on-disk policy is behind its in-memory one.
	dirty map[string]*Tenant
	// flushIDs is the reusable scratch for flush's deterministic
	// (sorted) checkpoint order.
	flushIDs []string
	// due is the due-time tenant index: an intrusive min-heap over the
	// resident tenants that have any due work coming — a pending
	// scheduler timer, or an idle-eviction deadline — keyed by
	// (Tenant.dueAt, Tenant.ID). Tenants with neither (idle households
	// with eviction disabled, or fully quiesced) are simply absent, so
	// an advance tick never touches them. Maintained on admit, deliver,
	// Do, eviction and resurrection via refreshDue/dueRemove.
	due []*Tenant
	// tickSeq/tickAt record the shard-wide clock pumps: tickSeq counts
	// them and tickAt is the latest pump time. A tick advances every
	// tenant resident when it is dispatched to at least tickAt, but the
	// due index only touches tenants with due work; the rest get tickAt
	// applied lazily, as a floor on their next event's time in handle.
	// Tenant.tickSeq (the count snapshotted at admission) exempts tenants
	// admitted after the latest tick, which no tick has advanced.
	tickSeq uint64
	tickAt  time.Duration
	// evictq holds tenants already removed from the resident map whose
	// final checkpoint write is still pending: eviction writes are
	// batched at drain-batch boundaries (drainEvictions) so a sweep of
	// idle tenants pays one parallel write wave instead of one blocking
	// file rotation per event.
	evictq []*Tenant
	// known is the set of households with a checkpoint file (or rotated
	// backup) on disk: the directory listing taken once at New, plus
	// every file this shard wrote since. Admission consults it instead
	// of probing the filesystem, so a first-contact household costs zero
	// failed opens. The fleet owns its checkpoint directory exclusively
	// while running (the same single-writer assumption the crash-safe
	// rotation already relies on), so the set cannot go stale.
	known map[string]bool
	// saver holds the reusable checkpoint encode buffers for the writes
	// the loop goroutine makes itself (handoff evictions, forced
	// writebacks).
	saver store.MultiSaver
	// ckpt is the decode scratch every checkpoint restore on this shard
	// goes through (see ckptScratch).
	ckpt *ckptScratch
	// free is the pool of per-worker savers control-queue jobs borrow,
	// built on the shard's first write (ensureSavers).
	free chan *store.MultiSaver
	// ctl is the shard's control-plane queue. Eviction writebacks and
	// checkpoint waves are enqueued on it and drained at batch
	// boundaries, with retry-with-backoff on failure; Drain is a
	// synchronization point, so every write is complete when it returns.
	ctl *queue.Queue
}

// flushWriters is how many checkpoint files a batch flush writes
// concurrently. The work is blocking file I/O (create, write, fsync,
// rename), so overlapping it pays even on a single CPU.
const flushWriters = 8

// maxBatch bounds how many work items a shard loop dispatches before it
// services the eviction write queue. Without the cap a sustained
// producer would keep the drain loop spinning and defer queued eviction
// checkpoints indefinitely.
const maxBatch = 128

// New validates the configuration and builds the shard pool.
func New(cfg Config) (*Fleet, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.NewSystem == nil {
		return nil, fmt.Errorf("fleet: Config.NewSystem is required")
	}
	if cfg.Backend == nil {
		if cfg.Dir == "" {
			return nil, fmt.Errorf("fleet: Config.Dir or Config.Backend is required")
		}
		b, err := store.NewDirBackend(cfg.Dir)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		cfg.Backend = b
	}
	f := &Fleet{cfg: cfg, backend: cfg.Backend}
	for i := 0; i < cfg.Shards; i++ {
		s := &shard{
			f:       f,
			idx:     i,
			in:      make(chan msg, 256),
			done:    make(chan struct{}),
			tenants: make(map[string]*Tenant),
			dirty:   make(map[string]*Tenant),
			known:   make(map[string]bool),
			ckpt:    newCkptScratch(),
		}
		var inject queue.InjectFunc
		if cfg.JobInject != nil {
			inject = cfg.JobInject(i)
		}
		s.ctl = queue.New(queue.Config{
			Workers: flushWriters,
			Permits: map[queue.Class]int{
				classEviction:   flushWriters,
				classCheckpoint: flushWriters,
			},
			Retry:  ctlRetry(),
			Seed:   int64(i),
			Stream: "fleet/ctl",
			Inject: inject,
		})
		f.shards = append(f.shards, s)
	}
	// One backend enumeration seeds every shard's known-checkpoint set,
	// so admissions never probe the store for households that have never
	// been persisted.
	err := f.backend.Enumerate(func(name string) {
		if !ValidHousehold(name) {
			return
		}
		f.shards[ShardOf(name, len(f.shards))].known[name] = true
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return f, nil
}

// Shards returns the shard count households are hashed across.
func (f *Fleet) Shards() int { return len(f.shards) }

// Start spawns the shard event loops.
func (f *Fleet) Start() {
	if !f.state.CompareAndSwap(fleetBuilt, fleetStarted) {
		return
	}
	for _, s := range f.shards {
		go s.run()
	}
}

// Deliver routes one event to its household's shard, blocking while the
// shard's queue is full (backpressure). Events for the same household
// must come from one goroutine (or be externally ordered); their At
// values must be non-decreasing.
func (f *Fleet) Deliver(ev Event) error {
	if !ValidHousehold(ev.Household) {
		return fmt.Errorf("fleet: invalid household ID %q", ev.Household)
	}
	if f.state.Load() != fleetStarted {
		return fmt.Errorf("fleet: not running")
	}
	f.shards[ShardOf(ev.Household, len(f.shards))].in <- msg{ev: ev}
	return nil
}

// Do runs fn on the household's shard loop, admitting the tenant if it
// is not resident, and waits for it to finish. The tenant must not be
// retained after fn returns.
func (f *Fleet) Do(household string, fn func(*Tenant) error) error {
	if !ValidHousehold(household) {
		return fmt.Errorf("fleet: invalid household ID %q", household)
	}
	if f.state.Load() != fleetStarted {
		return fmt.Errorf("fleet: not running")
	}
	res := make(chan error, 1)
	f.shards[ShardOf(household, len(f.shards))].in <- msg{fn: func(s *shard) {
		t, err := s.admit(household)
		if err != nil {
			res <- err
			return
		}
		err = fn(t)
		// fn may have armed or cancelled timers (started a session, say):
		// recompute the tenant's slot in the due-time index.
		s.refreshDue(t)
		res <- err
	}}
	return <-res
}

// MarkKnown records that a checkpoint blob for household now exists in
// the backend, without admitting the tenant. The cluster layer calls it
// when a replica or handoff blob arrives out-of-band (written to the
// backend by the peer link, not by this fleet), so a later admission
// restores from the blob instead of starting fresh.
func (f *Fleet) MarkKnown(household string) error {
	if !ValidHousehold(household) {
		return fmt.Errorf("fleet: invalid household ID %q", household)
	}
	if f.state.Load() != fleetStarted {
		return fmt.Errorf("fleet: not running")
	}
	res := make(chan struct{})
	f.shards[ShardOf(household, len(f.shards))].in <- msg{fn: func(s *shard) {
		s.known[household] = true
		close(res)
	}}
	<-res
	return nil
}

// EvictNow checkpoints and releases one resident tenant immediately —
// the sending half of a cluster handoff, which must flush the tenant's
// final state to the backend before shipping the blob to the new owner.
// A household that is not resident is a no-op (its checkpoint, if any,
// is already on disk).
func (f *Fleet) EvictNow(household string) error {
	if !ValidHousehold(household) {
		return fmt.Errorf("fleet: invalid household ID %q", household)
	}
	if f.state.Load() != fleetStarted {
		return fmt.Errorf("fleet: not running")
	}
	res := make(chan error, 1)
	f.shards[ShardOf(household, len(f.shards))].in <- msg{fn: func(s *shard) {
		res <- s.evictNow(household)
	}}
	return <-res
}

// evictNow force-evicts one household on the loop goroutine, fsyncing
// its final checkpoint. A pending queued eviction write is completed
// first, so the on-disk blob is the tenant's final state either way.
func (s *shard) evictNow(household string) error {
	if len(s.evictq) > 0 {
		s.writebackEvicted(household)
	}
	t, ok := s.tenants[household]
	if !ok {
		return nil
	}
	if err := t.save(s.f.backend, &s.saver, true); err != nil {
		return err
	}
	delete(s.dirty, household)
	s.known[household] = true
	s.stats.Checkpoints++
	s.publishCheckpointDone(1)
	delete(s.tenants, household)
	s.dueRemove(t)
	if s.lastT == t {
		s.lastID, s.lastT = "", nil
	}
	s.stats.Evictions++
	s.f.log("shard %d: evicted %s (handoff)", s.idx, household)
	return nil
}

// barrier runs fn on every shard loop and waits for all of them.
func (f *Fleet) barrier(fn func(*shard)) {
	var wg sync.WaitGroup
	wg.Add(len(f.shards))
	for _, s := range f.shards {
		s.in <- msg{fn: func(s *shard) {
			defer wg.Done()
			fn(s)
		}}
	}
	wg.Wait()
}

// advanceAll moves every tenant with due work's virtual clock to at
// least `to`, firing due timers and the idle-eviction check. The serving
// layer calls this from its wall-clock pump; it does not wait for
// completion. The tick is encoded as a household-less EventAdvance
// message rather than a control closure, so a pump tick allocates
// nothing (a closure would heap-allocate its captured deadline).
func (f *Fleet) advanceAll(to time.Duration) {
	for _, s := range f.shards {
		s.in <- msg{ev: Event{Kind: EventAdvance, At: to}}
	}
}

// Advance asks every shard to move its due tenants' virtual clocks to
// at least to — the external clock pump, for serving layers (and idle
// benchmarks) driving the fleet off their own wall or virtual clock.
// It does not wait for the ticks to be processed; a Stats call is a
// barrier if the caller needs one. to values should be non-decreasing,
// and events delivered after an Advance should not be stamped before it
// (a monotone source clock gives both for free).
func (f *Fleet) Advance(to time.Duration) error {
	if f.state.Load() != fleetStarted {
		return fmt.Errorf("fleet: not running")
	}
	f.advanceAll(to)
	return nil
}

// Flush checkpoints every dirty tenant on every shard (batch per-shard
// checkpointing) and waits for the writes to finish. Periodic flushes
// are incremental: only households with events since their last
// checkpoint are serialized, and the files are not fsynced (the atomic
// rename keeps them process-crash-safe; Stop takes the fsynced final
// checkpoint).
func (f *Fleet) Flush() {
	if f.state.Load() != fleetStarted {
		return
	}
	f.barrier(func(s *shard) { s.flush(false) })
}

// Stats snapshots the aggregated counters (a barrier across shards).
func (f *Fleet) Stats() Stats {
	running := f.state.Load() == fleetStarted
	var out Stats
	if !running {
		for _, s := range f.shards {
			out.add(s.snapshot())
		}
		return out
	}
	var mu sync.Mutex
	f.barrier(func(s *shard) {
		st := s.snapshot()
		mu.Lock()
		out.add(st)
		mu.Unlock()
	})
	return out
}

// snapshot is one shard's counter view, folding in the control queue's
// retry count (the drain-level counters live in the queue).
func (s *shard) snapshot() Stats {
	st := s.stats
	st.Resident = len(s.tenants)
	st.JobRetries = s.ctl.Stats().Retried
	return st
}

// Stop drains every shard, checkpoints all remaining dirty tenants
// (fsynced — the final checkpoint is the durable one), and joins the
// loops. Deliver/Do/Flush fail or no-op afterwards.
func (f *Fleet) Stop() {
	if !f.state.CompareAndSwap(fleetStarted, fleetStopped) {
		return
	}
	for _, s := range f.shards {
		s.in <- msg{fn: func(s *shard) {
			s.flush(true)
			s.quit = true
		}}
	}
	for _, s := range f.shards {
		<-s.done
	}
}

func (f *Fleet) log(format string, args ...any) {
	if f.cfg.OnLog == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg.OnLog(fmt.Sprintf(format, args...))
}

// run is the shard event loop: the single goroutine owning this shard's
// tenants. After each blocking receive it drains whatever else is
// already queued (up to maxBatch items) before blocking again, so a
// burst of traffic pays one channel wakeup (and one scheduler round
// trip) instead of one per event. Eviction checkpoints queued during a
// batch are written — in parallel — at the batch boundary.
func (s *shard) run() {
	defer close(s.done)
	for !s.quit {
		s.dispatch(<-s.in)
	drain:
		for n := 1; !s.quit && n < maxBatch; n++ {
			select {
			case m := <-s.in:
				s.dispatch(m)
			default:
				break drain
			}
		}
		s.drainEvictions(false)
	}
}

// dispatch runs one work item on the loop goroutine. Control closures
// (Do, Flush, Stats, Stop, advanceAll) are synchronization points:
// queued eviction writes land before the closure runs, so an observer
// that has been through a barrier also sees the eviction checkpoints on
// disk.
func (s *shard) dispatch(m msg) {
	if m.fn != nil {
		s.drainEvictions(false)
		m.fn(s)
		return
	}
	if m.ev.Kind == EventAdvance && m.ev.Household == "" {
		// A shard-wide clock-pump tick (Fleet.advanceAll). Like control
		// closures it is a drain point, so eviction checkpoints cannot be
		// deferred past a tick. Deliver rejects empty households, so the
		// encoding cannot collide with tenant traffic.
		s.drainEvictions(false)
		s.advanceAll(m.ev.At)
		return
	}
	s.handle(m.ev)
}

// handle processes one event on the loop goroutine — the shard ingest
// path every delivered event funnels through.
//
//coreda:hotpath
func (s *shard) handle(ev Event) {
	t := s.lastT
	if t == nil || s.lastID != ev.Household {
		var err error
		t, err = s.admit(ev.Household)
		if err != nil {
			s.stats.Dropped++
			s.f.log("shard %d: admit %s: %v", s.idx, ev.Household, err)
			return
		}
		s.lastID, s.lastT = ev.Household, t
	}
	// The tenant clock never goes backwards: a late event is processed
	// at the tenant's current time (same policy as a real gateway, which
	// stamps arrival time). A shard-wide tick that preceded this event on
	// the queue is a floor too: the tick advanced every tenant resident
	// at the time to at least tickAt, even one the due index skipped
	// because nothing of it was due.
	at := ev.At
	if now := t.Sched.Now(); at < now {
		at = now
	}
	if t.tickSeq != s.tickSeq && at < s.tickAt {
		at = s.tickAt
	}
	t.Sched.RunUntil(at)
	switch ev.Kind {
	case EventUsage:
		u := ev.Usage
		u.At = at
		t.Hub.HandleUsage(u)
		t.lastEvent = at
		s.markDirty(t)
		s.stats.Events++
	case EventNodeState:
		t.Hub.HandleNodeState(ev.Tool, ev.Online)
		t.lastEvent = at
		s.markDirty(t)
		s.stats.NodeStates++
	case EventAdvance:
		// Clock only; the eviction check below does the rest.
	}
	if !s.maybeEvict(t) {
		s.refreshDue(t)
	}
}

// markDirty records that t has events since its last checkpoint. The
// first transition (per checkpoint cycle) is published as TenantDirty;
// repeat events on an already-dirty tenant publish nothing, so the bus
// sees dirty-set transitions, not traffic.
func (s *shard) markDirty(t *Tenant) {
	if bus := s.f.cfg.Bus; bus != nil {
		if _, ok := s.dirty[t.ID]; !ok {
			bus.Publish(notify.Event{Kind: notify.TenantDirty, Household: t.ID, Shard: s.idx})
		}
	}
	s.dirty[t.ID] = t
}

// admit returns the resident tenant, spinning it up from its checkpoint
// file (or fresh) on first contact.
func (s *shard) admit(household string) (*Tenant, error) {
	if t, ok := s.tenants[household]; ok {
		return t, nil
	}
	if len(s.evictq) > 0 {
		if t := s.writebackEvicted(household); t != nil {
			return t, nil
		}
	}
	cfg, err := s.f.cfg.NewSystem(household)
	if err != nil {
		return nil, err
	}
	if cfg.LEDs == nil && s.f.cfg.LEDs != nil {
		cfg.LEDs = s.f.cfg.LEDs(household)
	}
	t, recovered, err := newTenant(household, cfg, s.f.backend, s.ckpt, s.known[household])
	if err != nil {
		return nil, err
	}
	s.tenants[household] = t
	// Ticks before admission never applied to this tenant, so the floor
	// in handle must ignore them.
	t.tickSeq = s.tickSeq
	s.refreshDue(t)
	s.stats.Admissions++
	switch recovered {
	case recoveredCheckpoint:
		s.stats.Recovered++
		s.f.log("shard %d: admitted %s from checkpoint (%d episodes)", s.idx, household, t.System.Planner().Episodes)
	case recoveredFresh:
		s.f.log("shard %d: admitted %s fresh", s.idx, household)
	case recoveredError:
		s.stats.RecoveryErrors++
		s.f.log("shard %d: admitted %s fresh (checkpoint unusable: %v)", s.idx, household, t.loadErr)
	}
	return t, nil
}

// maybeEvict releases a tenant idle past the deadline on its own
// virtual clock, reporting whether it did. Mid-session tenants are
// kept: a session in flight pins the tenant. The eviction decision (and
// the resident-map removal) is immediate and purely virtual-time-driven
// — identical at any shard count — but the final checkpoint write of a
// dirty tenant is queued and batched at the next drain boundary, where
// a sweep of evictions becomes one parallel write wave. The file bytes
// are a pure function of the tenant's state at eviction, so deferring
// the write cannot change any policy file or the parity digest.
func (s *shard) maybeEvict(t *Tenant) bool {
	d := s.f.cfg.IdleEvict
	if d <= 0 || t.System.Active() {
		return false
	}
	if t.Sched.Now()-t.lastEvent < d {
		return false
	}
	delete(s.tenants, t.ID)
	s.dueRemove(t)
	if s.lastT == t {
		s.lastID, s.lastT = "", nil
	}
	s.stats.Evictions++
	if _, dirty := s.dirty[t.ID]; dirty {
		// The queued write carries the tenant's final state; dirty
		// membership moves with it.
		delete(s.dirty, t.ID)
		s.evictq = append(s.evictq, t)
		if bus := s.f.cfg.Bus; bus != nil {
			bus.Publish(notify.Event{Kind: notify.EvictionQueued, Household: t.ID, Shard: s.idx})
		}
		return true
	}
	s.f.log("shard %d: evicted %s (idle %v)", s.idx, t.ID, t.Sched.Now()-t.lastEvent)
	return true
}

// drainEvictions writes the final checkpoints of tenants evicted since
// the last drain, in eviction order, as control-queue jobs (retried with
// backoff, consumed by the shard's writer pool). The shard loop blocks
// until every write returned, and a tenant whose write fails is
// re-admitted instead of losing its learning.
func (s *shard) drainEvictions(fsync bool) {
	if len(s.evictq) == 0 {
		return
	}
	pre := s.stats.Checkpoints
	s.enqueueEvictions(fsync)
	//coreda:vet-ignore droppederr per-job errors are handled by each job's Done (finishEvict)
	_ = s.ctl.Drain()
	s.publishCheckpointDone(s.stats.Checkpoints - pre)
}

// enqueueEvictions turns the eviction queue into control-queue jobs (at
// eviction priority, ahead of checkpoint writes sharing the drain) and
// empties it; the caller owns the Drain. Each job borrows a pooled
// saver, writes one tenant's final checkpoint, and completes back on
// the loop goroutine via finishEvict.
func (s *shard) enqueueEvictions(fsync bool) {
	s.ensureSavers()
	for _, t := range s.evictq {
		t := t
		s.ctl.Enqueue(queue.Job{
			Class:    classEviction,
			Priority: priEviction,
			Label:    t.ID,
			Run: func() error {
				sv := <-s.free
				err := t.save(s.f.backend, sv, fsync)
				s.free <- sv
				return err
			},
			Done: func(err error) { s.finishEvict(t, err) },
		})
	}
	s.clearEvictq()
}

// clearEvictq empties the eviction queue without dropping its capacity.
func (s *shard) clearEvictq() {
	for i := range s.evictq {
		s.evictq[i] = nil
	}
	s.evictq = s.evictq[:0]
}

// publishCheckpointDone announces a finished checkpoint wave of n files
// on the bus (no-op when nothing was written or no bus is wired).
func (s *shard) publishCheckpointDone(n int) {
	if n <= 0 {
		return
	}
	if bus := s.f.cfg.Bus; bus != nil {
		bus.Publish(notify.Event{Kind: notify.CheckpointDone, Shard: s.idx, Count: n})
	}
}

// finishEvict completes one queued eviction after its checkpoint write
// returned. On failure the tenant is resurrected — it never left memory
// — and the failure counts as a writeback failure and is published on
// the bus, where the cluster layer folds it into degraded-mode
// accounting (notify.WritebackFailed).
func (s *shard) finishEvict(t *Tenant, err error) {
	if err != nil {
		s.f.log("shard %d: evict %s: %v", s.idx, t.ID, err)
		s.tenants[t.ID] = t
		s.dirty[t.ID] = t
		s.refreshDue(t)
		s.stats.Evictions--
		s.stats.WritebackFailures++
		if bus := s.f.cfg.Bus; bus != nil {
			bus.Publish(notify.Event{Kind: notify.WritebackFailed, Household: t.ID, Shard: s.idx, Err: err.Error()})
		}
		return
	}
	s.known[t.ID] = true
	s.stats.Checkpoints++
	s.f.log("shard %d: evicted %s (idle %v)", s.idx, t.ID, t.Sched.Now()-t.lastEvent)
}

// writebackEvicted force-completes a queued eviction write for one
// household (an event for it arrived before the batch boundary). It
// returns the tenant if the write failed and the tenant was resurrected
// as resident; otherwise nil, and the caller re-admits from the
// just-written file — byte-identical to the batched path.
func (s *shard) writebackEvicted(household string) *Tenant {
	for i, t := range s.evictq {
		if t.ID != household {
			continue
		}
		s.evictq = append(s.evictq[:i], s.evictq[i+1:]...)
		pre := s.stats.Checkpoints
		s.finishEvict(t, t.save(s.f.backend, &s.saver, false))
		s.publishCheckpointDone(s.stats.Checkpoints - pre)
		if rt, ok := s.tenants[household]; ok {
			return rt
		}
		return nil
	}
	return nil
}

// advanceAll pumps due tenants' clocks to `to`, firing their timers and
// the idle-eviction check. It pops the due-time heap: it touches
// exactly the tenants whose next timer or eviction deadline is <= to, in
// (due, household) order, and never wakes an idle household — a tick
// over a shard of quiesced tenants is a single heap peek.
//
// Termination: a popped tenant is reinserted only via refreshDue, and
// after RunUntil(to) its next timer is > to (RunUntil fires everything
// due, including timers armed by the fired callbacks), while an
// eviction deadline <= to would have evicted it (an Active tenant has
// no eviction component at all). So every reinserted due is > to and
// the loop pops each due tenant exactly once per tick.
//
//coreda:hotpath
func (s *shard) advanceAll(to time.Duration) {
	s.tickSeq++
	if to > s.tickAt {
		s.tickAt = to
	}
	for len(s.due) > 0 && s.due[0].dueAt <= to {
		t := s.duePop()
		if to > t.Sched.Now() {
			t.Sched.RunUntil(to)
		}
		if !s.maybeEvict(t) {
			s.refreshDue(t)
		}
	}
}

// tenantDue computes the earliest virtual time at which t has work a
// clock pump must deliver: its next scheduler timer, or — when idle
// eviction is on and no session pins it — its idle-eviction deadline.
// ok is false when the tenant has neither, i.e. it can sleep forever
// until external traffic arrives.
//
//coreda:hotpath
func (s *shard) tenantDue(t *Tenant) (time.Duration, bool) {
	next, ok := t.Sched.NextDue()
	if d := s.f.cfg.IdleEvict; d > 0 && !t.System.Active() {
		if ev := t.lastEvent + d; !ok || ev < next {
			next, ok = ev, true
		}
	}
	return next, ok
}

// refreshDue recomputes t's due time and moves it to the right place in
// the shard's due-time index — inserting, repositioning or removing it.
// Called after anything that can change a tenant's timers or eviction
// deadline: admission, event delivery, Do closures, a clock pump, and
// resurrection after a failed eviction writeback.
//
//coreda:hotpath
func (s *shard) refreshDue(t *Tenant) {
	at, ok := s.tenantDue(t)
	if !ok {
		s.dueRemove(t)
		return
	}
	if t.dueIdx < 0 {
		t.dueAt = at
		s.duePush(t)
		return
	}
	if t.dueAt != at {
		t.dueAt = at
		s.dueFix(int(t.dueIdx))
	}
}

// The due-time index is a hand-rolled intrusive binary min-heap over
// *Tenant, ordered by (dueAt, ID); Tenant.dueIdx tracks each element's
// position so removal and reposition are O(log n) without a search.
// container/heap would box every element through its interface and
// allocate on the hot pump path. Every primitive below is hotalloc-
// gated: the only allocation in the whole index is duePush's amortized
// slice growth, which escape analysis does not (and should not) flag.

func dueLess(a, b *Tenant) bool {
	if a.dueAt != b.dueAt {
		return a.dueAt < b.dueAt
	}
	return a.ID < b.ID
}

//coreda:hotpath
func (s *shard) duePush(t *Tenant) {
	t.dueIdx = int32(len(s.due))
	s.due = append(s.due, t)
	s.dueUp(len(s.due) - 1)
}

//coreda:hotpath
func (s *shard) duePop() *Tenant {
	t := s.due[0]
	n := len(s.due) - 1
	s.dueSwap(0, n)
	s.due[n] = nil
	s.due = s.due[:n]
	if n > 0 {
		s.dueDown(0)
	}
	t.dueIdx = -1
	return t
}

// dueRemove detaches t from the index; a tenant not in it is a no-op.
//
//coreda:hotpath
func (s *shard) dueRemove(t *Tenant) {
	i := int(t.dueIdx)
	if i < 0 {
		return
	}
	n := len(s.due) - 1
	if i != n {
		s.dueSwap(i, n)
	}
	s.due[n] = nil
	s.due = s.due[:n]
	if i != n {
		s.dueFix(i)
	}
	t.dueIdx = -1
}

// dueFix restores heap order after the element at i changed its key.
//
//coreda:hotpath
func (s *shard) dueFix(i int) {
	if !s.dueDown(i) {
		s.dueUp(i)
	}
}

func (s *shard) dueUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !dueLess(s.due[i], s.due[parent]) {
			break
		}
		s.dueSwap(i, parent)
		i = parent
	}
}

// dueDown sifts the element at i toward the leaves, reporting whether
// it moved (so dueFix knows to try sifting up instead).
func (s *shard) dueDown(i int) bool {
	n := len(s.due)
	i0 := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && dueLess(s.due[r], s.due[l]) {
			j = r
		}
		if !dueLess(s.due[j], s.due[i]) {
			break
		}
		s.dueSwap(i, j)
		i = j
	}
	return i > i0
}

func (s *shard) dueSwap(i, j int) {
	s.due[i], s.due[j] = s.due[j], s.due[i]
	s.due[i].dueIdx = int32(i)
	s.due[j].dueIdx = int32(j)
}

// flush checkpoints every dirty tenant (batch per-shard checkpointing).
// It walks the dirty set, not the full resident map, so the cost of a
// periodic flush scales with how many households actually changed;
// iteration is sorted for deterministic write order.
//
// The wave is one combined drain: pending eviction writebacks are
// enqueued at eviction priority, the sorted dirty set at checkpoint
// priority, and a single Drain runs both, evictions first.
func (s *shard) flush(fsync bool) {
	if len(s.evictq) == 0 && len(s.dirty) == 0 {
		return
	}
	pre := s.stats.Checkpoints
	if len(s.evictq) > 0 {
		s.enqueueEvictions(fsync)
	}
	s.ensureSavers()
	s.flushIDs = s.flushIDs[:0]
	for id := range s.dirty {
		s.flushIDs = append(s.flushIDs, id)
	}
	sort.Strings(s.flushIDs)
	for _, id := range s.flushIDs {
		id, t := id, s.dirty[id]
		s.ctl.Enqueue(queue.Job{
			Class:    classCheckpoint,
			Priority: priCheckpoint,
			Label:    id,
			Run: func() error {
				sv := <-s.free
				err := t.save(s.f.backend, sv, fsync)
				s.free <- sv
				return err
			},
			Done: func(err error) {
				if err != nil {
					s.f.log("shard %d: checkpoint %s: %v", s.idx, id, err)
					return
				}
				delete(s.dirty, id)
				s.known[id] = true
				s.stats.Checkpoints++
			},
		})
	}
	//coreda:vet-ignore droppederr per-job errors are handled by each job's Done callback
	_ = s.ctl.Drain()
	s.publishCheckpointDone(s.stats.Checkpoints - pre)
}

// ensureSavers fills the saver pool control-queue jobs borrow through
// s.free, one saver per writer, on first use. Every job returns its
// saver before Drain completes, so the pool is full between waves.
func (s *shard) ensureSavers() {
	if s.free != nil {
		return
	}
	s.free = make(chan *store.MultiSaver, flushWriters)
	for i := 0; i < flushWriters; i++ {
		s.free <- &store.MultiSaver{}
	}
}

// ValidHousehold reports whether id is usable as a household ID: 1 to
// wire.MaxHousehold bytes of letters, digits, '-', '_' or '.', not
// starting with a dot (IDs double as checkpoint file names).
func ValidHousehold(id string) bool {
	if len(id) == 0 || len(id) > wire.MaxHousehold || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}
