package store

import (
	"fmt"

	"coreda/internal/adl"
	"coreda/internal/rl"
)

// multiPolicyVersion is the current MultiPolicyFile schema version.
const multiPolicyVersion = 1

// MultiPolicyFile serializes a multi-routine policy: the routine set and
// one Q-table per routine. It is the schema of legacy JSON checkpoints
// (still decoded on load) and the compatibility view LoadMultiPolicy
// returns whatever the on-disk encoding was.
type MultiPolicyFile struct {
	Version  int          `json:"version"`
	User     string       `json:"user"`
	Activity string       `json:"activity"`
	Routines [][]uint16   `json:"routines"`
	Policies []PolicyFile `json:"policies"`
}

// TrainState is the training progress persisted alongside each policy of
// a multi-policy checkpoint, so a planner restored from checkpoint
// resumes its annealing schedule instead of restarting exploration from
// scratch.
type TrainState struct {
	Episodes int
	Epsilon  float64
}

// EncodedRoutines is the serialized form of a routine set. Routines never
// change after a tenant is admitted, so callers encode once (via
// EncodeRoutines) and hand the cached encoding to every subsequent
// checkpoint instead of re-encoding each routine per save.
type EncodedRoutines [][]uint16

// EncodeRoutines converts routines to their on-disk form.
func EncodeRoutines(routines []adl.Routine) EncodedRoutines {
	enc := make(EncodedRoutines, len(routines))
	for i, r := range routines {
		steps := make([]uint16, len(r))
		for j, s := range r {
			steps[j] = uint16(s)
		}
		enc[i] = steps
	}
	return enc
}

// MultiSaver writes multi-routine policy checkpoints with reusable
// encode state: the staged Checkpoint, its Q-value scratch slices and
// the encode buffer all persist across saves, so steady-state
// checkpointing does not scale its allocations with the Q-table size.
// It always writes the binary CKPT format. The zero value is ready to
// use. A MultiSaver is not safe for concurrent use; in the fleet each
// shard owns one and checkpoints its tenants through it.
type MultiSaver struct {
	ckpt Checkpoint  // staged encode view
	buf  []byte      // reusable CKPT encode buffer
	q    [][]float64 // per-policy Q-value scratch, reused across saves
}

// Save encodes one checkpoint and writes it atomically through the
// backend (Put semantics: previous generation kept as fallback). The
// encoded bytes stream to the backend in PutChunk-sized writes, so a
// large Q-table never forces one giant write. routines and tables must
// be parallel; states may be nil or parallel to them. fsync says
// whether the blob is flushed to stable storage before it is published:
// incremental checkpoints pass false (atomic publication keeps them
// process-crash-safe, and the previous generation covers a torn blob
// after a power loss), while final flushes pass true for full
// durability.
func (s *MultiSaver) Save(b Backend, name, user, activity string, routines EncodedRoutines, tables []*rl.QTable, states []TrainState, fsync bool) error {
	if err := s.stage(user, activity, routines, tables, states); err != nil {
		return err
	}
	w, err := b.PutStream(name, fsync)
	if err != nil {
		return err
	}
	return s.writeTo(w)
}

// SavePath is Save against a bare filesystem path (no backend, no
// extension convention): the compatibility entry point for the
// path-based SaveMultiPolicy API. The crash-safety protocol is
// identical — it writes through the same fileBlobWriter the local-dir
// backend uses.
func (s *MultiSaver) SavePath(path, user, activity string, routines EncodedRoutines, tables []*rl.QTable, states []TrainState, fsync bool) error {
	if err := s.stage(user, activity, routines, tables, states); err != nil {
		return err
	}
	w, err := newFileBlobWriter(path, fsync)
	if err != nil {
		return err
	}
	return s.writeTo(w)
}

// stage validates the arguments and fills the saver's reusable encode
// view.
func (s *MultiSaver) stage(user, activity string, routines EncodedRoutines, tables []*rl.QTable, states []TrainState) error {
	if len(routines) != len(tables) {
		return fmt.Errorf("store: %d routines but %d tables", len(routines), len(tables))
	}
	if states != nil && len(states) != len(tables) {
		return fmt.Errorf("store: %d tables but %d train states", len(tables), len(states))
	}
	for len(s.q) < len(tables) {
		s.q = append(s.q, nil)
	}
	s.ckpt.User = user
	s.ckpt.Activity = activity
	s.ckpt.Routines = routines
	for cap(s.ckpt.Policies) < len(tables) {
		s.ckpt.Policies = append(s.ckpt.Policies[:cap(s.ckpt.Policies)], CheckpointPolicy{})
	}
	s.ckpt.Policies = s.ckpt.Policies[:len(tables)]
	for i, t := range tables {
		s.q[i] = t.AppendValues(s.q[i][:0])
		p := &s.ckpt.Policies[i]
		p.States, p.Actions = t.NumStates(), t.NumActions()
		p.Episodes, p.Epsilon = 0, 0
		if states != nil {
			p.Episodes, p.Epsilon = states[i].Episodes, states[i].Epsilon
		}
		p.Q = s.q[i]
	}
	return nil
}

// writeTo encodes the staged checkpoint through w and commits it.
func (s *MultiSaver) writeTo(w BlobWriter) error {
	var err error
	if s.buf, err = AppendCheckpoint(s.buf[:0], &s.ckpt); err != nil {
		w.Abort()
		return err
	}
	return putChunked(w, s.buf)
}

// SaveMultiPolicy writes a multi-routine policy atomically at path in
// the binary format, keeping the previous generation at
// path+BackupSuffix (same crash-safety contract as SavePolicy).
// routines and tables must be parallel slices; states may be nil (no
// training progress recorded) or parallel to them. It is the one-shot
// convenience over MultiSaver (fsynced); repeated checkpointing should
// hold a MultiSaver and cached EncodeRoutines instead.
func SaveMultiPolicy(path, user, activity string, routines []adl.Routine, tables []*rl.QTable, states []TrainState) error {
	var s MultiSaver
	return s.SavePath(path, user, activity, EncodeRoutines(routines), tables, states, true)
}

// LoadMultiPolicy reads and validates a multi-routine policy of either
// format (the content is sniffed, so pre-binary JSON checkpoints load
// transparently). If the primary file is unreadable or malformed, the
// rotated backup (path+BackupSuffix) is tried before giving up; the
// returned error then covers both attempts, except that two missing
// files collapse to ErrNoCheckpoint. A torn primary with no backup is
// deliberately NOT ErrNoCheckpoint — a checkpoint existed and was lost,
// and callers must be able to tell that apart from a genuine fresh
// start. Per-policy training progress is in the returned file's
// Policies[i].Episodes/Epsilon.
func LoadMultiPolicy(path string) (MultiPolicyFile, []adl.Routine, []*rl.QTable, error) {
	var c Checkpoint
	if _, err := loadBlobFile(path, func(data []byte) error { return DecodeCheckpoint(&c, data) }); err != nil {
		return MultiPolicyFile{}, nil, nil, err
	}
	f, routines, tables, err := checkpointToMulti(&c)
	if err != nil {
		return MultiPolicyFile{}, nil, nil, fmt.Errorf("store: multi-policy %s: %w", path, err)
	}
	return f, routines, tables, nil
}

// checkpointToMulti converts a decoded Checkpoint into the
// MultiPolicyFile compatibility view plus materialized routines and
// Q-tables.
func checkpointToMulti(c *Checkpoint) (MultiPolicyFile, []adl.Routine, []*rl.QTable, error) {
	if len(c.Routines) != len(c.Policies) || len(c.Routines) == 0 {
		return MultiPolicyFile{}, nil, nil, fmt.Errorf("%d routines and %d policies", len(c.Routines), len(c.Policies))
	}
	f := MultiPolicyFile{
		Version:  multiPolicyVersion,
		User:     c.User,
		Activity: c.Activity,
		Routines: c.Routines,
		Policies: make([]PolicyFile, len(c.Policies)),
	}
	routines := make([]adl.Routine, len(c.Routines))
	tables := make([]*rl.QTable, len(c.Policies))
	for i, enc := range c.Routines {
		r := make(adl.Routine, len(enc))
		for j, s := range enc {
			r[j] = adl.StepID(s)
		}
		routines[i] = r

		p := c.Policies[i]
		t := rl.NewQTable(p.States, p.Actions, 0)
		if err := t.SetValues(p.Q); err != nil {
			return MultiPolicyFile{}, nil, nil, err
		}
		tables[i] = t
		f.Policies[i] = PolicyFile{
			Version:  policyVersion,
			User:     c.User,
			Activity: c.Activity,
			States:   p.States,
			Actions:  p.Actions,
			Episodes: p.Episodes,
			Epsilon:  p.Epsilon,
			Q:        p.Q,
		}
	}
	return f, routines, tables, nil
}
