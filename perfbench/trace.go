package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"coreda/internal/store"
)

// span is one traced interval, in ns since the tracer's epoch. ID ties
// the spans of one request together (a household index, a round, a
// blob sequence number); 0 means none.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	ID    int64  `json:"id,omitempty"`
}

// tracer holds a traced run's spans in memory; they are written out
// once, when the run ends. Spans are recorded from the benchmark's own
// code around calls into each layer's public functions and from the
// SystemConfig hooks — never from inside the program. Every span's
// duration is kept for the per-layer metrics, but only the first
// maxSpans spans themselves: churn and replicate record millions of
// store calls per run.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	omitted int
	durs    map[string][]int64
}

const maxSpans = 100_000

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), durs: make(map[string][]int64)}
}

// now is the tracer clock: ns since its epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(name string, start, end, id int64) {
	t.mu.Lock()
	t.durs[name] = append(t.durs[name], end-start)
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Name: name, Start: start, End: end, ID: id})
	} else {
		t.omitted++
	}
	t.mu.Unlock()
}

// durations returns the lengths of every span called name.
func (t *tracer) durations(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]int64(nil), t.durs[name]...)
}

// write dumps the kept spans as JSON lines, then a line counting the
// spans left out.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	err = enc.Encode(map[string]int{"omitted_spans": t.omitted})
	t.mu.Unlock()
	if err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// storeCounts are the timing wrapper's counters.
type storeCounts struct {
	puts, gets, fsyncs, fallbacks, bytes int64
}

// timedBackend wraps a store.Backend (and the BlobWriters it hands out)
// with spans: store.put (PutStream or Put to Commit), store.write (the
// Write calls of one blob, summed), store.commit, store.get and
// store.decode (the caller's check callback, i.e. the CKPT decode). A
// Get that runs the check more than once fell back to the older
// generation.
type timedBackend struct {
	store.Backend
	t *tracer

	mu sync.Mutex
	c  storeCounts
	// waveFirst/waveLast bound the blob writes since the last wave mark
	// (see markWave).
	waveFirst, waveLast int64
}

func newTimedBackend(b store.Backend, t *tracer) *timedBackend {
	return &timedBackend{Backend: b, t: t}
}

func (b *timedBackend) counts() storeCounts {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.c
}

func (b *timedBackend) Get(name string, check func([]byte) error) ([]byte, error) {
	calls := 0
	var decode int64
	wrapped := check
	if check != nil {
		wrapped = func(data []byte) error {
			calls++
			t0 := b.t.now()
			err := check(data)
			decode += b.t.now() - t0
			return err
		}
	}
	t0 := b.t.now()
	data, err := b.Backend.Get(name, wrapped)
	t1 := b.t.now()
	b.t.add("store.get", t0, t1, 0)
	if check != nil {
		b.t.add("store.decode", t0, t0+decode, 0)
	}
	b.mu.Lock()
	b.c.gets++
	if calls > 1 {
		b.c.fallbacks++
	}
	b.mu.Unlock()
	return data, err
}

func (b *timedBackend) Put(name string, data []byte, fsync bool) error {
	t0 := b.t.now()
	err := b.Backend.Put(name, data, fsync)
	b.finishPut(t0, 0, 0, int64(len(data)), fsync, err)
	return err
}

func (b *timedBackend) PutStream(name string, fsync bool) (store.BlobWriter, error) {
	t0 := b.t.now()
	w, err := b.Backend.PutStream(name, fsync)
	if err != nil {
		return nil, err
	}
	return &timedWriter{BlobWriter: w, b: b, start: t0, fsync: fsync}, nil
}

// finishPut records one completed (or failed) blob write.
func (b *timedBackend) finishPut(start, write, commit, n int64, fsync bool, err error) {
	end := b.t.now()
	b.t.add("store.put", start, end, 0)
	if write > 0 {
		b.t.add("store.write", start, start+write, 0)
	}
	if commit > 0 {
		b.t.add("store.commit", end-commit, end, 0)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err != nil {
		return
	}
	b.c.puts++
	b.c.bytes += n
	if fsync {
		b.c.fsyncs++
	}
	if b.waveFirst == 0 || start < b.waveFirst {
		b.waveFirst = start
	}
	if end > b.waveLast {
		b.waveLast = end
	}
}

// markWave closes the current checkpoint wave: if any blob was written
// since the previous mark and record is set, it records a store.wave
// span from the first write's start to the last commit's end.
func (b *timedBackend) markWave(record bool) {
	b.mu.Lock()
	first, last := b.waveFirst, b.waveLast
	b.waveFirst, b.waveLast = 0, 0
	b.mu.Unlock()
	if record && first != 0 {
		b.t.add("store.wave", first, last, 0)
	}
}

type timedWriter struct {
	store.BlobWriter
	b            *timedBackend
	start, write int64
	n            int64
	fsync        bool
}

func (w *timedWriter) Write(p []byte) (int, error) {
	t0 := w.b.t.now()
	n, err := w.BlobWriter.Write(p)
	w.write += w.b.t.now() - t0
	w.n += int64(n)
	return n, err
}

func (w *timedWriter) Commit() error {
	t0 := w.b.t.now()
	err := w.BlobWriter.Commit()
	w.b.finishPut(w.start, w.write, w.b.t.now()-t0, w.n, w.fsync, err)
	return err
}

// report prints a labelled line of the human-readable run report.
func report(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}
