package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func samplePackets() []Packet {
	return []Packet{
		&UsageStart{UID: 21, Seq: 7, Sensor: 1, NodeTime: 123456, Hits: 4, Threshold: 150},
		&UsageEnd{UID: 21, Seq: 8, NodeTime: 125456, DurationMs: 2000},
		&LEDCommand{UID: 24, Seq: 3, Color: LEDGreen, Blinks: 5, PeriodMs: 250},
		&Ack{UID: 24, Seq: 3},
		&Heartbeat{UID: 11, Seq: 99, UptimeMs: 3600000, Battery: 87},
		&Hello{UID: 21, Seq: 1, HelloVersion: HelloVersion, Household: "tanaka-42"},
		&PeerHello{PeerVersion: PeerHelloVersion, Epoch: 3, PeerAddr: "127.0.0.1:9001", NodeAddr: "127.0.0.1:9101"},
		&Redirect{Seq: 4, Addr: "127.0.0.1:9102"},
		&Replicate{Seq: 17, Flags: FlagFsync, NameLen: 6, Size: 4096, CRC: 0xDEADBEEF},
		&Handoff{Seq: 18, Epoch: 3, NameLen: 6, Size: 4096, CRC: 0xCAFEF00D},
		&RangeClaim{Seq: 19, Epoch: 4, Start: 12, End: 31, Addr: "127.0.0.1:9002"},
	}
}

// decode parses one frame into a fresh Frame and returns its packet.
func decode(frame []byte) (Packet, error) {
	var f Frame
	if err := DecodeInto(&f, frame); err != nil {
		return nil, err
	}
	return f.Packet(), nil
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, p := range samplePackets() {
		frame, err := AppendFrame(nil, p)
		if err != nil {
			t.Fatalf("%v: Encode: %v", p.Type(), err)
		}
		got, err := decode(frame)
		if err != nil {
			t.Fatalf("%v: Decode: %v", p.Type(), err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("%v: round trip = %+v, want %+v", p.Type(), got, p)
		}
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Errorf("CRC16 = 0x%04X, want 0x29B1", got)
	}
	if got := CRC16(nil); got != 0xFFFF {
		t.Errorf("CRC16(nil) = 0x%04X, want 0xFFFF", got)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	frame, err := AppendFrame(nil, &Ack{UID: 1, Seq: 2})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"short", func(f []byte) []byte { return f[:3] }, ErrShortFrame},
		{"bad magic", func(f []byte) []byte { f[0] = 0x00; return f }, ErrBadMagic},
		{"bad version", func(f []byte) []byte { f[1] = 99; return f }, ErrBadVersion},
		{"flipped payload bit", func(f []byte) []byte { f[5] ^= 0x01; return f }, ErrBadCRC},
		{"flipped crc bit", func(f []byte) []byte { f[len(f)-1] ^= 0x01; return f }, ErrBadCRC},
		{"truncated payload", func(f []byte) []byte { return f[:len(f)-1] }, ErrShortFrame},
		{"unknown type", func(f []byte) []byte {
			f[2] = 0x7F
			// Re-stamp the CRC so the type check is what fails.
			crc := CRC16(f[1 : len(f)-2])
			f[len(f)-2] = byte(crc >> 8)
			f[len(f)-1] = byte(crc)
			return f
		}, ErrUnknownType},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f := append([]byte(nil), frame...)
			_, err := decode(tt.mutate(f))
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("Decode error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestDecodeRejectsWrongPayloadLength(t *testing.T) {
	// Build a frame whose declared length is valid but does not match the
	// packet type's fixed payload size.
	frame := []byte{Magic, Version, byte(TypeAck), 2, 0xAA, 0xBB}
	crc := CRC16(frame[1:])
	frame = append(frame, byte(crc>>8), byte(crc))
	_, err := decode(frame)
	if !errors.Is(err, ErrBadPayload) {
		t.Errorf("Decode error = %v, want ErrBadPayload", err)
	}
}

func TestDecodeRejectsBadFields(t *testing.T) {
	// Frames that are well-formed at the framing layer (valid CRC) but
	// carry field values no real node can produce.
	build := func(typ byte, payload []byte) []byte {
		f := append([]byte{Magic, Version, typ, byte(len(payload))}, payload...)
		crc := CRC16(f[1:])
		return append(f, byte(crc>>8), byte(crc))
	}
	tests := []struct {
		name  string
		frame []byte
	}{
		{"led color 0", build(byte(TypeLEDCommand), []byte{0, 2, 0, 3, 0, 5, 0, 250})},
		{"led color 7", build(byte(TypeLEDCommand), []byte{0, 2, 0, 3, 7, 5, 0, 250})},
		{"battery 101%", build(byte(TypeHeartbeat), []byte{0, 1, 0, 1, 0, 0, 0, 1, 101})},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := decode(tt.frame); !errors.Is(err, ErrBadField) {
				t.Errorf("Decode error = %v, want ErrBadField", err)
			}
		})
	}
}

func TestHelloVersioning(t *testing.T) {
	build := func(typ byte, payload []byte) []byte {
		f := append([]byte{Magic, Version, typ, byte(len(payload))}, payload...)
		crc := CRC16(f[1:])
		return append(f, byte(crc>>8), byte(crc))
	}
	hello := func(ver byte, household string, extra ...byte) []byte {
		payload := []byte{0, 9, 0, 1, ver, byte(len(household))}
		payload = append(payload, household...)
		payload = append(payload, extra...)
		return build(byte(TypeHello), payload)
	}

	// A v2 hello with fields appended after the household must still
	// parse on this v1 implementation — that is the forward half of the
	// handshake's compatibility contract.
	p, err := decode(hello(2, "home-7", 0xAA, 0xBB))
	if err != nil {
		t.Fatalf("v2 hello with trailing fields: %v", err)
	}
	h, ok := p.(*Hello)
	if !ok || h.Household != "home-7" || h.HelloVersion != 2 {
		t.Errorf("v2 hello decoded to %+v", p)
	}

	// A v1 hello must end exactly after the household: trailing bytes in
	// a frame claiming v1 are corruption, not extension.
	if _, err := decode(hello(1, "home-7", 0xAA)); !errors.Is(err, ErrBadPayload) {
		t.Errorf("v1 hello with trailing bytes: %v, want ErrBadPayload", err)
	}
	// Hello version 0 does not exist.
	if _, err := decode(hello(0, "home-7")); !errors.Is(err, ErrBadField) {
		t.Errorf("v0 hello: %v, want ErrBadField", err)
	}
	// A declared household longer than the payload actually carries.
	if _, err := decode(build(byte(TypeHello), []byte{0, 9, 0, 1, 1, 40, 'x'})); !errors.Is(err, ErrBadPayload) {
		t.Errorf("short household: %v, want ErrBadPayload", err)
	}
	// Empty household is legal: it means "the default household".
	if p, err := decode(hello(1, "")); err != nil {
		t.Errorf("empty household: %v", err)
	} else if p.(*Hello).Household != "" {
		t.Errorf("empty household decoded to %+v", p)
	}
	// Longest representable household round-trips; anything longer is
	// rejected at encode time by the payload budget.
	long := strings.Repeat("h", MaxHousehold)
	frame, err := AppendFrame(nil, &Hello{UID: 1, Seq: 1, HelloVersion: 1, Household: long})
	if err != nil {
		t.Fatalf("max household: %v", err)
	}
	if p, err := decode(frame); err != nil || p.(*Hello).Household != long {
		t.Errorf("max household round-trip: %v, %+v", err, p)
	}
	if _, err := AppendFrame(nil, &Hello{UID: 1, Seq: 1, HelloVersion: 1, Household: long + "h"}); !errors.Is(err, ErrOversized) {
		t.Errorf("oversized household: %v, want ErrOversized", err)
	}
}

func buildRaw(typ byte, payload []byte) []byte {
	f := append([]byte{Magic, Version, typ, byte(len(payload))}, payload...)
	crc := CRC16(f[1:])
	return append(f, byte(crc>>8), byte(crc))
}

func TestPeerHelloVersioning(t *testing.T) {
	peerHello := func(ver byte, peer, node string, extra ...byte) []byte {
		payload := []byte{ver, 0, 0, 0, 7, byte(len(peer))}
		payload = append(payload, peer...)
		payload = append(payload, byte(len(node)))
		payload = append(payload, node...)
		payload = append(payload, extra...)
		return buildRaw(byte(TypePeerHello), payload)
	}

	// Forward compatibility: a v2 peer hello with appended fields parses
	// on this v1 implementation.
	p, err := decode(peerHello(2, "a:1", "a:2", 0xAA, 0xBB))
	if err != nil {
		t.Fatalf("v2 peer hello with trailing fields: %v", err)
	}
	h, ok := p.(*PeerHello)
	if !ok || h.PeerAddr != "a:1" || h.NodeAddr != "a:2" || h.Epoch != 7 || h.PeerVersion != 2 {
		t.Errorf("v2 peer hello decoded to %+v", p)
	}
	// A v1 peer hello must end exactly after the node address.
	if _, err := decode(peerHello(1, "a:1", "a:2", 0xAA)); !errors.Is(err, ErrBadPayload) {
		t.Errorf("v1 peer hello with trailing bytes: %v, want ErrBadPayload", err)
	}
	// Version 0 does not exist.
	if _, err := decode(peerHello(0, "a:1", "a:2")); !errors.Is(err, ErrBadField) {
		t.Errorf("v0 peer hello: %v, want ErrBadField", err)
	}
	// A declared address longer than the payload carries.
	if _, err := decode(buildRaw(byte(TypePeerHello), []byte{1, 0, 0, 0, 1, 20, 'x'})); !errors.Is(err, ErrBadPayload) {
		t.Errorf("short peer addr: %v, want ErrBadPayload", err)
	}
	// Two max-length addresses fit the payload budget.
	long := strings.Repeat("a", MaxAddr)
	frame, err := AppendFrame(nil, &PeerHello{PeerVersion: 1, PeerAddr: long, NodeAddr: long})
	if err != nil {
		t.Fatalf("max peer hello: %v", err)
	}
	if p, err := decode(frame); err != nil || p.(*PeerHello).NodeAddr != long {
		t.Errorf("max peer hello round-trip: %v, %+v", err, p)
	}
}

func TestPeerPacketFieldValidation(t *testing.T) {
	tests := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"redirect addr too long", buildRaw(byte(TypeRedirect), append([]byte{0, 1, 29}, bytes.Repeat([]byte{'x'}, 29)...)), ErrBadField},
		{"redirect truncated addr", buildRaw(byte(TypeRedirect), []byte{0, 1, 5, 'x'}), ErrBadPayload},
		{"replicate unknown flags", buildRaw(byte(TypeReplicate), []byte{0, 1, 0x82, 3, 0, 0, 0, 1, 0, 0, 0, 0}), ErrBadField},
		{"replicate name too long", buildRaw(byte(TypeReplicate), []byte{0, 1, 0, 59, 0, 0, 0, 1, 0, 0, 0, 0}), ErrBadField},
		{"replicate blob too big", buildRaw(byte(TypeReplicate), []byte{0, 1, 0, 3, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}), ErrBadField},
		{"replicate short", buildRaw(byte(TypeReplicate), []byte{0, 1, 0, 3}), ErrBadPayload},
		{"handoff unknown flags", buildRaw(byte(TypeHandoff), []byte{0, 1, 0, 0, 0, 2, 0x40, 3, 0, 0, 0, 1, 0, 0, 0, 0}), ErrBadField},
		{"handoff name too long", buildRaw(byte(TypeHandoff), []byte{0, 1, 0, 0, 0, 2, 0, 59, 0, 0, 0, 1, 0, 0, 0, 0}), ErrBadField},
		{"handoff blob too big", buildRaw(byte(TypeHandoff), []byte{0, 1, 0, 0, 0, 2, 0, 3, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}), ErrBadField},
		{"rangeclaim inverted range", buildRaw(byte(TypeRangeClaim), []byte{0, 1, 0, 0, 0, 2, 0, 9, 0, 3, 3, 'a', ':', '1'}), ErrBadField},
		{"rangeclaim truncated addr", buildRaw(byte(TypeRangeClaim), []byte{0, 1, 0, 0, 0, 2, 0, 1, 0, 9, 5, 'a'}), ErrBadPayload},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := decode(tt.frame); !errors.Is(err, tt.want) {
				t.Errorf("Decode error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestBulkTransferBodyLen(t *testing.T) {
	r := &Replicate{NameLen: 6, Size: 4096}
	if r.BodyLen() != 6+4096 {
		t.Errorf("Replicate.BodyLen = %d, want %d", r.BodyLen(), 6+4096)
	}
	h := &Handoff{NameLen: 58, Size: MaxBlob}
	if h.BodyLen() != 58+MaxBlob {
		t.Errorf("Handoff.BodyLen = %d, want %d", h.BodyLen(), 58+MaxBlob)
	}
}

func TestReaderWriterStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := samplePackets()
	for _, p := range want {
		if err := w.WritePacket(p); err != nil {
			t.Fatalf("WritePacket: %v", err)
		}
	}
	r := NewReader(&buf)
	for i, wantP := range want {
		got, err := r.ReadPacket()
		if err != nil {
			t.Fatalf("ReadPacket %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, wantP) {
			t.Errorf("packet %d = %+v, want %+v", i, got, wantP)
		}
	}
	if _, err := r.ReadPacket(); !errors.Is(err, io.EOF) {
		t.Errorf("after stream end: %v, want EOF", err)
	}
}

func TestReaderResynchronizesAfterGarbage(t *testing.T) {
	var buf bytes.Buffer
	// Garbage, including a fake magic byte followed by junk.
	buf.Write([]byte{0x00, 0x01, Magic, 0xFF, 0xFF, 0xFF})
	w := NewWriter(&buf)
	want := &Heartbeat{UID: 5, Seq: 1, UptimeMs: 1000, Battery: 50}
	if err := w.WritePacket(want); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	got, err := r.ReadPacket()
	if err != nil {
		t.Fatalf("ReadPacket: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestReaderSkipsCorruptFrameThenRecovers(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	first, _ := AppendFrame(nil, &Ack{UID: 1, Seq: 1})
	first[5] ^= 0xFF // corrupt payload -> CRC failure
	buf.Write(first)
	want := &Ack{UID: 2, Seq: 2}
	if err := w.WritePacket(want); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	got, err := r.ReadPacket()
	if err != nil {
		t.Fatalf("ReadPacket: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestPacketRoundTripProperty(t *testing.T) {
	// Property: any UsageStart round-trips bit-exactly.
	f := func(uid, seq uint16, sensor uint8, nodeTime uint32, hits uint8, threshold uint16) bool {
		in := &UsageStart{UID: uid, Seq: seq, Sensor: sensor, NodeTime: nodeTime, Hits: hits, Threshold: threshold}
		frame, err := AppendFrame(nil, in)
		if err != nil {
			return false
		}
		out, err := decode(frame)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	// Property: Decode returns an error (never panics) on arbitrary input.
	f := func(b []byte) bool {
		p, err := decode(b)
		return p != nil || err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTypeAndColorStrings(t *testing.T) {
	if TypeUsageStart.String() != "usage-start" || TypeLEDCommand.String() != "led-command" {
		t.Error("type strings")
	}
	if Type(0xEE).String() == "" {
		t.Error("unknown type string empty")
	}
	if LEDGreen.String() != "green" || LEDRed.String() != "red" {
		t.Error("color strings")
	}
	if LEDColor(9).String() == "" {
		t.Error("unknown color string empty")
	}
}

func TestEncodedFrameLayout(t *testing.T) {
	p := &Ack{UID: 0x1234, Seq: 0x5678}
	frame, err := AppendFrame(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if frame[0] != Magic || frame[1] != Version || frame[2] != byte(TypeAck) || frame[3] != 4 {
		t.Errorf("header = % x", frame[:4])
	}
	if frame[4] != 0x12 || frame[5] != 0x34 || frame[6] != 0x56 || frame[7] != 0x78 {
		t.Errorf("payload = % x, want big-endian uid/seq", frame[4:8])
	}
	if len(frame) != 10 {
		t.Errorf("frame length = %d, want 10", len(frame))
	}
}
