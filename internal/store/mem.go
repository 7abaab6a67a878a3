package store

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
)

// MemBackend is an in-memory Backend holding two generations per blob,
// mirroring the local-dir backend's rotation semantics exactly: Put
// moves the current generation to the backup slot and installs the new
// bytes, Get falls back to the backup when the current generation fails
// the caller's check. It is the reference second implementation behind
// the Backend contract tests (and what a networked blob store would
// look like to the fleet), and doubles as a checkpoint sink for tests
// and in-process handoff that never touches a filesystem.
//
// Unlike most of the store, MemBackend is safe for concurrent use; the
// mutex only guards map access, never I/O or encoding.
type MemBackend struct {
	mu   sync.Mutex
	cur  map[string][]byte
	prev map[string][]byte
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{cur: make(map[string][]byte), prev: make(map[string][]byte)}
}

func (m *MemBackend) Get(name string, check func(data []byte) error) ([]byte, error) {
	m.mu.Lock()
	cur, curOK := m.cur[name]
	prev, prevOK := m.prev[name]
	m.mu.Unlock()
	if !curOK && !prevOK {
		return nil, ErrNoCheckpoint
	}
	var firstErr error
	for _, gen := range [2]struct {
		data []byte
		ok   bool
	}{{cur, curOK}, {prev, prevOK}} {
		if !gen.ok {
			continue
		}
		if check != nil {
			if err := check(gen.data); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("store: checkpoint %s: %w", name, err)
				}
				continue
			}
		}
		return gen.data, nil
	}
	return nil, firstErr
}

func (m *MemBackend) Put(name string, data []byte, fsync bool) error {
	_ = fsync // memory has no stable storage to flush to
	m.install(name, bytes.Clone(data))
	return nil
}

// install publishes data as the newest generation of name, rotating the
// current one to the backup slot. The backend keeps data itself: the
// caller must not touch it afterwards.
func (m *MemBackend) install(name string, data []byte) {
	m.mu.Lock()
	if old, ok := m.cur[name]; ok {
		m.prev[name] = old
	}
	m.cur[name] = data
	m.mu.Unlock()
}

func (m *MemBackend) PutStream(name string, fsync bool) (BlobWriter, error) {
	return &memBlobWriter{m: m, name: name, fsync: fsync}, nil
}

// memBlobWriter buffers the stream and publishes it on Commit — the same
// all-or-nothing visibility the file rename gives. Like a file writer,
// it refuses writes once committed or aborted.
type memBlobWriter struct {
	m     *MemBackend
	name  string
	fsync bool
	buf   []byte
	done  bool
}

func (w *memBlobWriter) Write(p []byte) (int, error) {
	if w.done {
		return 0, fmt.Errorf("store: blob %s: write after Commit or Abort", w.name)
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *memBlobWriter) Commit() error {
	if w.done {
		return fmt.Errorf("store: blob %s already committed", w.name)
	}
	w.done = true
	// No Write can reach the buffer any more, so it is published as it
	// is instead of being copied a second time.
	w.m.install(w.name, w.buf)
	w.buf = nil
	return nil
}

func (w *memBlobWriter) Abort() {
	w.done = true
	w.buf = nil
}

func (m *MemBackend) Enumerate(fn func(name string)) error {
	m.mu.Lock()
	names := make([]string, 0, len(m.cur)+len(m.prev))
	for name := range m.cur {
		names = append(names, name)
	}
	for name := range m.prev {
		if _, ok := m.cur[name]; !ok {
			names = append(names, name)
		}
	}
	m.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		fn(name)
	}
	return nil
}

func (m *MemBackend) Delete(name string) error {
	m.mu.Lock()
	delete(m.cur, name)
	delete(m.prev, name)
	m.mu.Unlock()
	return nil
}
