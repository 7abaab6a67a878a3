package wire

import (
	"io"
	"testing"

	"coreda/internal/testutil"
)

// loopReader serves the same frame bytes forever without allocating,
// so reader benchmarks and alloc tests measure only the codec.
type loopReader struct {
	frame []byte
	off   int
}

func (lr *loopReader) Read(p []byte) (int, error) {
	n := copy(p, lr.frame[lr.off:])
	lr.off += n
	if lr.off == len(lr.frame) {
		lr.off = 0
	}
	return n, nil
}

// decodeStringAllocs returns how many allocations decoding a packet of
// type t is sanctioned to make: one per string field copied off the
// frame buffer. Only handshake/control packets carry strings (Hello's
// household, the peer-protocol addresses), and all of them are
// per-connection or per-rebalance traffic, never per-event.
func decodeStringAllocs(t Type) float64 {
	switch t {
	case TypeHello, TypeRedirect, TypeRangeClaim:
		return 1
	case TypePeerHello:
		return 2 // peer address + node address
	default:
		return 0
	}
}

// TestServingFastPathsZeroAlloc locks the serving-path codec at zero
// allocations per frame: AppendFrame, DecodeInto, Writer queue+flush and
// Reader.ReadFrame. The one sanctioned exception is string fields on
// handshake/control packets, which must be copied off the frame buffer
// (see decodeStringAllocs).
func TestServingFastPathsZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are enforced by the no-race pass (scripts/check.sh)")
	}
	for _, p := range samplePackets() {
		p := p
		t.Run("AppendFrame/"+p.Type().String(), func(t *testing.T) {
			buf := make([]byte, 0, MaxFrame)
			if n := testing.AllocsPerRun(200, func() {
				var err error
				buf, err = AppendFrame(buf[:0], p)
				if err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("AppendFrame(%s): %.1f allocs/op, want 0", p.Type(), n)
			}
		})

		t.Run("DecodeInto/"+p.Type().String(), func(t *testing.T) {
			frame, err := AppendFrame(nil, p)
			if err != nil {
				t.Fatal(err)
			}
			var f Frame
			want := decodeStringAllocs(p.Type())
			if n := testing.AllocsPerRun(200, func() {
				if err := DecodeInto(&f, frame); err != nil {
					t.Fatal(err)
				}
			}); n != want {
				t.Errorf("DecodeInto(%s): %.1f allocs/op, want %.0f", p.Type(), n, want)
			}
		})

		t.Run("Writer/"+p.Type().String(), func(t *testing.T) {
			w := NewWriter(io.Discard)
			defer w.Release()
			// Warm up so the pooled buffer is drawn outside the
			// measurement.
			if err := w.WritePacket(p); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(200, func() {
				if err := w.WritePacket(p); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("WritePacket(%s): %.1f allocs/op, want 0", p.Type(), n)
			}
		})

		if decodeStringAllocs(p.Type()) > 0 {
			continue // decode allocates string fields (see above)
		}
		t.Run("ReadFrame/"+p.Type().String(), func(t *testing.T) {
			frame, err := AppendFrame(nil, p)
			if err != nil {
				t.Fatal(err)
			}
			r := NewReader(&loopReader{frame: frame})
			var f Frame
			if n := testing.AllocsPerRun(200, func() {
				if err := r.ReadFrame(&f); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("ReadFrame(%s): %.1f allocs/op, want 0", p.Type(), n)
			}
		})
	}
}

func BenchmarkEncode(b *testing.B) {
	p := &UsageStart{UID: 21, Seq: 7, Sensor: 1, NodeTime: 123456, Hits: 4, Threshold: 150}
	buf := make([]byte, 0, MaxFrame)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendFrame(buf[:0], p)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	frame, err := AppendFrame(nil, &UsageStart{UID: 21, Seq: 7, Sensor: 1, NodeTime: 123456, Hits: 4, Threshold: 150})
	if err != nil {
		b.Fatal(err)
	}
	var f Frame
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(&f, frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWritePacket(b *testing.B) {
	p := &Ack{UID: 24, Seq: 3}
	w := NewWriter(io.Discard)
	defer w.Release()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.WritePacket(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadPacket(b *testing.B) {
	frame, err := AppendFrame(nil, &Heartbeat{UID: 11, Seq: 99, UptimeMs: 3600000, Battery: 87})
	if err != nil {
		b.Fatal(err)
	}
	r := NewReader(&loopReader{frame: frame})
	var f Frame
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.ReadFrame(&f); err != nil {
			b.Fatal(err)
		}
	}
}
