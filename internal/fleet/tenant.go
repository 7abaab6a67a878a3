package fleet

import (
	"errors"
	"fmt"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/rl"
	"coreda/internal/sim"
	"coreda/internal/store"
)

// Tenant is one resident household: a full CoReDA stack on its own
// virtual clock. It is owned by its shard's loop goroutine — fleet users
// only touch a Tenant inside Fleet.Do.
type Tenant struct {
	// ID is the household ID; it doubles as the tenant's checkpoint
	// blob name in the fleet's storage backend.
	ID string
	// Sched is the tenant's private virtual clock. All of the tenant's
	// timers (idle watchdogs, reminder escalation) live here, which is
	// what makes its behaviour independent of shard count and load.
	Sched *sim.Scheduler
	// Hub routes the household's gateway traffic by tool.
	Hub *coreda.Hub
	// System is the stack for the household's instrumented activity.
	System *coreda.System

	activity *coreda.Activity
	// enc is the routine set in its on-disk form, encoded once at
	// admission: routines never change after admission, so incremental
	// checkpoints reuse this instead of re-encoding per save.
	enc store.EncodedRoutines
	// tables/states are the one-element scratch slices handed to the
	// saver, so a checkpoint does not allocate its argument slices.
	tables [1]*rl.QTable
	states [1]store.TrainState
	// lastEvent is the virtual time of the last delivered event; the
	// idle-eviction clock measures from here.
	lastEvent time.Duration
	// dueAt/dueIdx are the tenant's slot in its shard's due-time index
	// (shard.due): dueAt is the earliest virtual time at which the tenant
	// has work — its next scheduler timer or its idle-eviction deadline —
	// and dueIdx is its position in the intrusive min-heap, -1 when the
	// tenant has no due work and is absent from the index. Owned by the
	// shard loop, like everything else here.
	dueAt  time.Duration
	dueIdx int32
	// tickSeq is the shard's tick count at this tenant's admission: ticks
	// up to it predate the tenant and are excluded from the clock floor
	// handle applies (see shard.tickSeq/tickAt).
	tickSeq uint64
	// loadErr records why a checkpoint could not be restored (the tenant
	// then started fresh).
	loadErr error
}

// recovery says how a tenant came up.
type recovery int

const (
	// recoveredFresh: no checkpoint in the backend, blank policy.
	recoveredFresh recovery = iota
	// recoveredCheckpoint: learned policy restored from the blob.
	recoveredCheckpoint
	// recoveredError: a checkpoint existed but was unusable (see
	// Tenant.loadErr); the tenant started fresh.
	recoveredError
)

// ckptScratch is a shard's reusable decode target for checkpoint
// restores, owned by the shard loop like the tenants it serves. A load
// decodes into it and copies the values into the tenant's planner, so
// the Q slice reaches its full size once per shard instead of growing
// from nil on every admission.
type ckptScratch struct {
	c store.Checkpoint
	// decode is the Backend.Get check that decodes into c, bound once so
	// a load does not allocate a closure.
	decode func(data []byte) error
}

func newCkptScratch() *ckptScratch {
	sc := &ckptScratch{}
	sc.decode = func(data []byte) error { return store.DecodeCheckpoint(&sc.c, data) }
	return sc
}

// newTenant builds the household stack and restores its checkpoint from
// the backend, decoding through the shard's scratch sc, if one exists.
// tryLoad false skips the restore outright — the caller (the shard's
// known-checkpoint set) already knows no blob exists, so a first-contact
// admission costs zero storage probes.
func newTenant(id string, cfg coreda.SystemConfig, b store.Backend, sc *ckptScratch, tryLoad bool) (*Tenant, recovery, error) {
	if cfg.Activity == nil {
		return nil, 0, fmt.Errorf("fleet: NewSystem config for %q has no activity", id)
	}
	sched := sim.New()
	hub := coreda.NewHub(sched)
	sys, err := hub.Add(cfg)
	if err != nil {
		return nil, 0, err
	}
	t := &Tenant{
		ID:       id,
		Sched:    sched,
		Hub:      hub,
		System:   sys,
		activity: cfg.Activity,
		enc:      store.EncodeRoutines([]adl.Routine{cfg.Activity.CanonicalRoutine()}),
		dueIdx:   -1,
	}
	if !tryLoad {
		return t, recoveredFresh, nil
	}
	switch err := t.load(b, sc); {
	case err == nil:
		return t, recoveredCheckpoint, nil
	case errors.Is(err, store.ErrNoCheckpoint):
		// No generation of the blob exists: a genuine fresh start, not a
		// recovery failure. Folding this into the load saves the
		// stat-per-admission probe the old existence check cost.
		return t, recoveredFresh, nil
	default:
		t.loadErr = err
		return t, recoveredError, nil
	}
}

// load restores the learned policy and training progress from a
// checkpoint written by save. The blob is decoded into the shard's
// scratch checkpoint sc, whose slices carry over from one load to the
// next, and its Q values are then copied into the planner's own table.
func (t *Tenant) load(b store.Backend, sc *ckptScratch) error {
	if _, err := b.Get(t.ID, sc.decode); err != nil {
		return err
	}
	c := &sc.c
	if c.Activity != t.activity.Name {
		return fmt.Errorf("fleet: checkpoint %s is for activity %q, tenant runs %q", t.ID, c.Activity, t.activity.Name)
	}
	if len(c.Policies) != 1 {
		return fmt.Errorf("fleet: checkpoint %s has %d policies, want 1", t.ID, len(c.Policies))
	}
	cp := &c.Policies[0]
	p := t.System.Planner()
	own := p.Table()
	if own.NumStates() != cp.States || own.NumActions() != cp.Actions {
		return fmt.Errorf("fleet: checkpoint %s shape %dx%d does not match activity", t.ID, cp.States, cp.Actions)
	}
	if err := own.SetValues(cp.Q); err != nil {
		return err
	}
	p.Restore(cp.Episodes, cp.Epsilon)
	return nil
}

// save checkpoints the learned policy — Q-values plus the annealing
// state — through the backend's crash-safe rotation, reusing the
// shard's saver buffers and the tenant's cached routine encoding. fsync
// is false for incremental checkpoints and true for final flushes (see
// store.MultiSaver.Save).
func (t *Tenant) save(b store.Backend, sv *store.MultiSaver, fsync bool) error {
	p := t.System.Planner()
	t.tables[0] = p.Table()
	t.states[0] = store.TrainState{Episodes: p.Episodes, Epsilon: p.Epsilon()}
	return sv.Save(b, t.ID, t.ID, t.activity.Name, t.enc, t.tables[:], t.states[:], fsync)
}
