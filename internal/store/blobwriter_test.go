package store

import (
	"errors"
	"testing"
)

// TestBlobWriterAbortCommitEdges pins the BlobWriter lifecycle corners
// shared by both backends: an abort must not disturb existing
// generations, Commit after Abort must fail, Abort after Commit must
// not retract the published blob, and double Abort is a no-op.
func TestBlobWriterAbortCommitEdges(t *testing.T) {
	t.Parallel()
	backends := map[string]func(t *testing.T) Backend{
		"dir": func(t *testing.T) Backend {
			b, err := NewDirBackend(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
		"mem": func(t *testing.T) Backend { return NewMemBackend() },
	}
	for name, mk := range backends {
		mk := mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b := mk(t)
			if err := b.Put("h", []byte("gen-1"), false); err != nil {
				t.Fatal(err)
			}
			if err := b.Put("h", []byte("gen-2"), false); err != nil {
				t.Fatal(err)
			}

			// Abort mid-stream: both existing generations survive.
			w, err := b.PutStream("h", false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("doomed")); err != nil {
				t.Fatal(err)
			}
			w.Abort()
			w.Abort() // idempotent
			if err := w.Commit(); err == nil {
				t.Fatal("Commit after Abort succeeded")
			}
			got, err := b.Get("h", nil)
			if err != nil || string(got) != "gen-2" {
				t.Fatalf("Get after aborted stream = %q, %v; want gen-2", got, err)
			}
			got, err = b.Get("h", func(data []byte) error {
				if string(data) == "gen-2" {
					return errors.New("pretend torn")
				}
				return nil
			})
			if err != nil || string(got) != "gen-1" {
				t.Fatalf("backup after aborted stream = %q, %v; want gen-1", got, err)
			}

			// Abort after Commit must not retract the published blob.
			w, err = b.PutStream("h", false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("gen-3")); err != nil {
				t.Fatal(err)
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			w.Abort()
			got, err = b.Get("h", nil)
			if err != nil || string(got) != "gen-3" {
				t.Fatalf("Get after Commit+Abort = %q, %v; want gen-3", got, err)
			}
		})
	}
}

// TestMemBackendOverlappingStreams pins MemBackend-only semantics the
// dir backend cannot offer (its writers share one temp path per name):
// two in-flight streams for the same name are independent, the later
// Commit wins, and the earlier one rotates into the backup generation.
func TestMemBackendOverlappingStreams(t *testing.T) {
	t.Parallel()
	b := NewMemBackend()
	w1, err := b.PutStream("h", false)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := b.PutStream("h", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w1.Write([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Write([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := w1.Commit(); err != nil {
		t.Fatal(err)
	}
	// Nothing is visible from w2 until its own Commit.
	got, err := b.Get("h", nil)
	if err != nil || string(got) != "first" {
		t.Fatalf("Get between commits = %q, %v; want first", got, err)
	}
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err = b.Get("h", nil)
	if err != nil || string(got) != "second" {
		t.Fatalf("Get after both commits = %q, %v; want second", got, err)
	}
	got, err = b.Get("h", func(data []byte) error {
		if string(data) == "second" {
			return errors.New("pretend torn")
		}
		return nil
	})
	if err != nil || string(got) != "first" {
		t.Fatalf("backup generation = %q, %v; want first", got, err)
	}

	// A write after Abort is refused: Commit still fails and the
	// published generations are untouched.
	w3, err := b.PutStream("h", false)
	if err != nil {
		t.Fatal(err)
	}
	w3.Abort()
	if _, err := w3.Write([]byte("zombie")); err == nil {
		t.Fatal("Write after Abort succeeded")
	}
	if err := w3.Commit(); err == nil {
		t.Fatal("Commit after Abort succeeded")
	}
	if got, err := b.Get("h", nil); err != nil || string(got) != "second" {
		t.Fatalf("Get after zombie writer = %q, %v; want second", got, err)
	}
}

// TestBlobWriterRefusesWriteAfterFinish pins that a finished writer —
// committed or aborted — takes no more bytes on either backend, and that
// the refused bytes never reach the published blob.
func TestBlobWriterRefusesWriteAfterFinish(t *testing.T) {
	t.Parallel()
	backends := map[string]func(t *testing.T) Backend{
		"dir": func(t *testing.T) Backend {
			b, err := NewDirBackend(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
		"mem": func(t *testing.T) Backend { return NewMemBackend() },
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b := mk(t)
			for _, finish := range []string{"commit", "abort"} {
				w, err := b.PutStream("h", false)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.Write([]byte("blob-" + finish)); err != nil {
					t.Fatal(err)
				}
				if finish == "commit" {
					if err := w.Commit(); err != nil {
						t.Fatal(err)
					}
				} else {
					w.Abort()
				}
				if n, err := w.Write([]byte("-late")); err == nil || n != 0 {
					t.Fatalf("Write after %s = %d, %v; want 0 and an error", finish, n, err)
				}
				if got, err := b.Get("h", nil); err != nil || string(got) != "blob-commit" {
					t.Fatalf("Get after late write past %s = %q, %v; want blob-commit", finish, got, err)
				}
			}
		})
	}
}

// TestMemBackendCommitPublishesBuffer pins the copy discipline of the
// in-memory backend: a committed stream publishes the writer's own
// buffer, which no caller can reach, without copying it again; Put, whose
// argument the caller keeps, publishes a copy.
func TestMemBackendCommitPublishesBuffer(t *testing.T) {
	t.Parallel()
	b := NewMemBackend()
	w, err := b.PutStream("h", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("streamed")); err != nil {
		t.Fatal(err)
	}
	buf := w.(*memBlobWriter).buf
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := b.Get("h", nil)
	if err != nil || string(got) != "streamed" {
		t.Fatalf("Get = %q, %v; want streamed", got, err)
	}
	if &got[0] != &buf[0] {
		t.Error("Commit copied the stream buffer instead of publishing it")
	}

	data := []byte("put")
	if err := b.Put("h", data, false); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	if got, err := b.Get("h", nil); err != nil || string(got) != "put" {
		t.Fatalf("Get after mutating Put's argument = %q, %v; want put", got, err)
	}
}
