// Package wire defines the binary packet format spoken between (simulated)
// PAVENET sensor nodes and the CoReDA gateway.
//
// The real PAVENET module carries a ChipCon CC1000 radio with small frames;
// the format here mirrors that constraint: a one-byte magic, a version, a
// packet type, a length-prefixed payload of at most 64 bytes and a CRC-16
// trailer. The same encoding is used over the in-memory radio simulation
// and over real TCP links (cmd/coreda-server / cmd/coreda-node).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Magic is the start-of-frame marker.
const Magic byte = 0xC5

// Version is the protocol version encoded in every frame.
const Version byte = 1

// MaxPayload is the largest payload a frame may carry (CC1000-class radios
// use small MTUs).
const MaxPayload = 64

// Type identifies the kind of packet carried in a frame.
type Type byte

// Packet types.
const (
	// TypeUsageStart is sent by a node the moment the 3-of-10 threshold
	// rule fires: the tool has started being used.
	TypeUsageStart Type = 0x01
	// TypeUsageEnd is sent when usage ceases; it carries the usage
	// duration for the statistics that drive the idle timeout.
	TypeUsageEnd Type = 0x02
	// TypeLEDCommand is sent by the gateway to a node to drive the
	// reminder LEDs (green = use this tool, red = wrong tool).
	TypeLEDCommand Type = 0x03
	// TypeAck acknowledges a command.
	TypeAck Type = 0x04
	// TypeHeartbeat is sent periodically by nodes so the gateway can
	// track liveness.
	TypeHeartbeat Type = 0x05
	// TypeHello is sent by a node right after connecting to announce
	// which household it belongs to, so a multi-tenant gateway
	// (internal/fleet) can route the connection to the owning tenant.
	// Nodes that never send it are routed to the server's default
	// household, which keeps pre-hello nodes working unchanged.
	TypeHello Type = 0x06

	// Peer-protocol types (0x07..0x0B) travel only on the TCP links
	// between fleet processes of a cluster (internal/cluster), never on
	// the radio; they reuse the node framing so peer links get the same
	// CRC protection and resynchronizing reader for free.

	// TypePeerHello opens a peer link, announcing the sender's identity
	// (its peer address) and its node-facing address for redirects.
	TypePeerHello Type = 0x07
	// TypeRedirect answers a node hello for a household this process
	// does not own, naming the owning peer's node-facing address. The
	// node is expected to reconnect there.
	TypeRedirect Type = 0x08
	// TypeReplicate pushes one tenant checkpoint generation to a
	// replica peer. The frame is a bulk-transfer header: the household
	// name and blob bytes follow it raw on the stream (see
	// Replicate.BodyLen), since checkpoint blobs dwarf MaxPayload.
	TypeReplicate Type = 0x09
	// TypeHandoff transfers tenant ownership: like TypeReplicate (same
	// header-then-body shape) but the receiver becomes the tenant's
	// owner and the sender stops serving it once acked.
	TypeHandoff Type = 0x0A
	// TypeRangeClaim announces that a peer owns a ring-slot range as of
	// a membership epoch; receivers rebalance (hand off resident
	// tenants in the range) and redirect accordingly.
	TypeRangeClaim Type = 0x0B
)

// String returns the packet type name.
func (t Type) String() string {
	switch t {
	case TypeUsageStart:
		return "usage-start"
	case TypeUsageEnd:
		return "usage-end"
	case TypeLEDCommand:
		return "led-command"
	case TypeAck:
		return "ack"
	case TypeHeartbeat:
		return "heartbeat"
	case TypeHello:
		return "hello"
	case TypePeerHello:
		return "peer-hello"
	case TypeRedirect:
		return "redirect"
	case TypeReplicate:
		return "replicate"
	case TypeHandoff:
		return "handoff"
	case TypeRangeClaim:
		return "range-claim"
	default:
		return fmt.Sprintf("Type(0x%02x)", byte(t))
	}
}

// Errors returned by the codec.
var (
	ErrBadMagic    = errors.New("wire: bad frame magic")
	ErrBadVersion  = errors.New("wire: unsupported protocol version")
	ErrBadCRC      = errors.New("wire: CRC mismatch")
	ErrShortFrame  = errors.New("wire: frame truncated")
	ErrOversized   = errors.New("wire: payload exceeds MaxPayload")
	ErrUnknownType = errors.New("wire: unknown packet type")
	ErrBadPayload  = errors.New("wire: payload length does not match packet type")
	ErrBadField    = errors.New("wire: field value out of range")
)

// Packet is implemented by every message that can travel in a frame.
type Packet interface {
	// Type returns the packet's wire type.
	Type() Type
	// appendPayload serializes the packet body (without frame header or
	// CRC) by appending to dst, so hot paths can encode into reusable
	// buffers without per-frame allocations.
	appendPayload(dst []byte) []byte
	// parse deserializes the packet body.
	parse(b []byte) error
}

// LEDColor selects one of the node's reminder LEDs.
type LEDColor byte

// LED colors used by the reminding subsystem.
const (
	LEDGreen LEDColor = 1 // "use this tool"
	LEDRed   LEDColor = 2 // "this tool is wrong"
)

// String returns the color name.
func (c LEDColor) String() string {
	switch c {
	case LEDGreen:
		return "green"
	case LEDRed:
		return "red"
	default:
		return fmt.Sprintf("LEDColor(%d)", byte(c))
	}
}

// UsageStart reports that a tool has started being used.
type UsageStart struct {
	UID       uint16 // node unique ID == tool ID
	Seq       uint16 // per-node sequence number
	Sensor    uint8  // adl.SensorKind that triggered
	NodeTime  uint32 // node-local milliseconds since boot
	Hits      uint8  // how many of the last 10 samples exceeded threshold
	Threshold uint16 // configured threshold, fixed-point x100
}

// Type implements Packet.
func (*UsageStart) Type() Type { return TypeUsageStart }

func (p *UsageStart) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, p.UID)
	dst = binary.BigEndian.AppendUint16(dst, p.Seq)
	dst = append(dst, p.Sensor)
	dst = binary.BigEndian.AppendUint32(dst, p.NodeTime)
	dst = append(dst, p.Hits)
	return binary.BigEndian.AppendUint16(dst, p.Threshold)
}

func (p *UsageStart) parse(b []byte) error {
	if len(b) != 12 {
		return ErrBadPayload
	}
	p.UID = binary.BigEndian.Uint16(b[0:])
	p.Seq = binary.BigEndian.Uint16(b[2:])
	p.Sensor = b[4]
	p.NodeTime = binary.BigEndian.Uint32(b[5:])
	p.Hits = b[9]
	p.Threshold = binary.BigEndian.Uint16(b[10:])
	return nil
}

// UsageEnd reports that usage of a tool has ceased.
type UsageEnd struct {
	UID        uint16
	Seq        uint16
	NodeTime   uint32 // node-local milliseconds since boot at end of usage
	DurationMs uint32 // how long the tool was in use
}

// Type implements Packet.
func (*UsageEnd) Type() Type { return TypeUsageEnd }

func (p *UsageEnd) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, p.UID)
	dst = binary.BigEndian.AppendUint16(dst, p.Seq)
	dst = binary.BigEndian.AppendUint32(dst, p.NodeTime)
	return binary.BigEndian.AppendUint32(dst, p.DurationMs)
}

func (p *UsageEnd) parse(b []byte) error {
	if len(b) != 12 {
		return ErrBadPayload
	}
	p.UID = binary.BigEndian.Uint16(b[0:])
	p.Seq = binary.BigEndian.Uint16(b[2:])
	p.NodeTime = binary.BigEndian.Uint32(b[4:])
	p.DurationMs = binary.BigEndian.Uint32(b[8:])
	return nil
}

// LEDCommand drives a node's reminder LEDs.
type LEDCommand struct {
	UID      uint16
	Seq      uint16
	Color    LEDColor
	Blinks   uint8  // number of blinks; 0 turns the LED off
	PeriodMs uint16 // blink period
}

// Type implements Packet.
func (*LEDCommand) Type() Type { return TypeLEDCommand }

func (p *LEDCommand) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, p.UID)
	dst = binary.BigEndian.AppendUint16(dst, p.Seq)
	dst = append(dst, byte(p.Color), p.Blinks)
	return binary.BigEndian.AppendUint16(dst, p.PeriodMs)
}

func (p *LEDCommand) parse(b []byte) error {
	if len(b) != 8 {
		return ErrBadPayload
	}
	if c := LEDColor(b[4]); c != LEDGreen && c != LEDRed {
		return fmt.Errorf("%w: LED color %d", ErrBadField, b[4])
	}
	p.UID = binary.BigEndian.Uint16(b[0:])
	p.Seq = binary.BigEndian.Uint16(b[2:])
	p.Color = LEDColor(b[4])
	p.Blinks = b[5]
	p.PeriodMs = binary.BigEndian.Uint16(b[6:])
	return nil
}

// Ack acknowledges receipt of a command.
type Ack struct {
	UID uint16
	Seq uint16 // sequence number being acknowledged
}

// Type implements Packet.
func (*Ack) Type() Type { return TypeAck }

func (p *Ack) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, p.UID)
	return binary.BigEndian.AppendUint16(dst, p.Seq)
}

func (p *Ack) parse(b []byte) error {
	if len(b) != 4 {
		return ErrBadPayload
	}
	p.UID = binary.BigEndian.Uint16(b[0:])
	p.Seq = binary.BigEndian.Uint16(b[2:])
	return nil
}

// Heartbeat is a periodic liveness beacon.
type Heartbeat struct {
	UID      uint16
	Seq      uint16
	UptimeMs uint32
	Battery  uint8 // percent
}

// Type implements Packet.
func (*Heartbeat) Type() Type { return TypeHeartbeat }

func (p *Heartbeat) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, p.UID)
	dst = binary.BigEndian.AppendUint16(dst, p.Seq)
	dst = binary.BigEndian.AppendUint32(dst, p.UptimeMs)
	return append(dst, p.Battery)
}

func (p *Heartbeat) parse(b []byte) error {
	if len(b) != 9 {
		return ErrBadPayload
	}
	if b[8] > 100 {
		return fmt.Errorf("%w: battery %d%%", ErrBadField, b[8])
	}
	p.UID = binary.BigEndian.Uint16(b[0:])
	p.Seq = binary.BigEndian.Uint16(b[2:])
	p.UptimeMs = binary.BigEndian.Uint32(b[4:])
	p.Battery = b[8]
	return nil
}

// HelloVersion is the current hello schema version. The hello carries
// its own version byte — independent of the frame Version — so the
// household handshake can evolve without a flag day for the whole
// protocol: a vN parser accepts hellos from any vM >= N node, ignoring
// fields appended after the ones it knows.
const HelloVersion = 1

// MaxHousehold is the longest household ID a hello may carry (the
// payload budget minus the fixed hello fields).
const MaxHousehold = MaxPayload - 6

// Hello announces a node's household membership. It should be the first
// packet a node sends on a connection; a multi-tenant gateway routes all
// subsequent traffic on the connection to that household.
type Hello struct {
	UID          uint16
	Seq          uint16
	HelloVersion uint8  // schema version of this hello (>= 1)
	Household    string // household ID, at most MaxHousehold bytes
}

// Type implements Packet.
func (*Hello) Type() Type { return TypeHello }

func (p *Hello) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, p.UID)
	dst = binary.BigEndian.AppendUint16(dst, p.Seq)
	dst = append(dst, p.HelloVersion, byte(len(p.Household)))
	return append(dst, p.Household...)
}

func (p *Hello) parse(b []byte) error {
	if len(b) < 6 {
		return ErrBadPayload
	}
	ver := b[4]
	if ver == 0 {
		return fmt.Errorf("%w: hello version 0", ErrBadField)
	}
	n := int(b[5])
	if n > MaxHousehold {
		return fmt.Errorf("%w: household length %d", ErrBadField, n)
	}
	// Version 1 payloads end exactly after the household; later versions
	// may append fields, which a v1 parser skips (backward compatibility
	// half of the versioned handshake).
	if ver == 1 && len(b) != 6+n {
		return ErrBadPayload
	}
	if len(b) < 6+n {
		return ErrBadPayload
	}
	p.UID = binary.BigEndian.Uint16(b[0:])
	p.Seq = binary.BigEndian.Uint16(b[2:])
	p.HelloVersion = ver
	p.Household = string(b[6 : 6+n])
	return nil
}

// PeerHelloVersion is the current peer-handshake schema version. Like
// HelloVersion it is carried in the payload, independent of the frame
// Version, so peer processes of adjacent releases can interoperate: a vN
// parser accepts peer hellos from any vM >= N peer, ignoring appended
// fields.
const PeerHelloVersion = 1

// MaxAddr is the longest address string a peer-protocol packet may
// carry. Two of them plus the fixed PeerHello fields must fit the
// payload budget.
const MaxAddr = 28

// PeerHello opens a peer link between two fleet processes. It names the
// sender twice: PeerAddr is its identity on the peer ring (what other
// peers dial), NodeAddr is its node-facing listener (what Redirect sends
// misdirected households to).
type PeerHello struct {
	PeerVersion uint8  // schema version of this peer hello (>= 1)
	Epoch       uint32 // sender's membership epoch
	PeerAddr    string // sender's peer-ring address, at most MaxAddr bytes
	NodeAddr    string // sender's node-facing address, at most MaxAddr bytes
}

// Type implements Packet.
func (*PeerHello) Type() Type { return TypePeerHello }

func (p *PeerHello) appendPayload(dst []byte) []byte {
	dst = append(dst, p.PeerVersion)
	dst = binary.BigEndian.AppendUint32(dst, p.Epoch)
	dst = append(dst, byte(len(p.PeerAddr)))
	dst = append(dst, p.PeerAddr...)
	dst = append(dst, byte(len(p.NodeAddr)))
	return append(dst, p.NodeAddr...)
}

func (p *PeerHello) parse(b []byte) error {
	if len(b) < 7 {
		return ErrBadPayload
	}
	ver := b[0]
	if ver == 0 {
		return fmt.Errorf("%w: peer hello version 0", ErrBadField)
	}
	pn := int(b[5])
	if pn > MaxAddr {
		return fmt.Errorf("%w: peer address length %d", ErrBadField, pn)
	}
	if len(b) < 7+pn {
		return ErrBadPayload
	}
	nn := int(b[6+pn])
	if nn > MaxAddr {
		return fmt.Errorf("%w: node address length %d", ErrBadField, nn)
	}
	// Version 1 payloads end exactly after the node address; later
	// versions may append fields, which a v1 parser skips.
	if ver == 1 && len(b) != 7+pn+nn {
		return ErrBadPayload
	}
	if len(b) < 7+pn+nn {
		return ErrBadPayload
	}
	p.PeerVersion = ver
	p.Epoch = binary.BigEndian.Uint32(b[1:])
	p.PeerAddr = string(b[6 : 6+pn])
	p.NodeAddr = string(b[7+pn : 7+pn+nn])
	return nil
}

// Redirect answers a node Hello for a household this process does not
// own: the node should reconnect to Addr (the owning peer's node-facing
// listener) and re-send its hello there.
type Redirect struct {
	Seq  uint16 // sequence of the Hello being answered
	Addr string // owning peer's node-facing address, at most MaxAddr bytes
}

// Type implements Packet.
func (*Redirect) Type() Type { return TypeRedirect }

func (p *Redirect) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, p.Seq)
	dst = append(dst, byte(len(p.Addr)))
	return append(dst, p.Addr...)
}

func (p *Redirect) parse(b []byte) error {
	if len(b) < 3 {
		return ErrBadPayload
	}
	n := int(b[2])
	if n > MaxAddr {
		return fmt.Errorf("%w: redirect address length %d", ErrBadField, n)
	}
	if len(b) != 3+n {
		return ErrBadPayload
	}
	p.Seq = binary.BigEndian.Uint16(b[0:])
	p.Addr = string(b[3 : 3+n])
	return nil
}

// MaxBlob is the largest checkpoint blob a Replicate/Handoff transfer
// accepts — a hostile-input cap far above any real checkpoint, which is
// kilobytes.
const MaxBlob = 16 << 20

// FlagFsync asks the receiver to persist the blob durably before
// acknowledging.
const FlagFsync = 0x01

// Replicate is the header of a checkpoint-replication transfer: frames
// cap payloads at MaxPayload, so the household name (NameLen bytes) and
// checkpoint blob (Size bytes) follow the frame raw on the stream — a
// bulk side-channel the resynchronizing Reader never sees because the
// receiver consumes exactly BodyLen bytes before the next frame. CRC is
// the IEEE CRC-32 of the blob alone; the name is covered by the check
// that it parses as a household the receiver replicates.
type Replicate struct {
	Seq     uint16 // per-link transfer sequence, echoed in the Ack
	Flags   uint8  // FlagFsync is the only defined bit
	NameLen uint8  // household name length, at most MaxHousehold
	Size    uint32 // checkpoint blob length, at most MaxBlob
	CRC     uint32 // IEEE CRC-32 of the blob bytes
}

// Type implements Packet.
func (*Replicate) Type() Type { return TypeReplicate }

// BodyLen returns how many raw bytes follow the frame on the stream.
func (p *Replicate) BodyLen() int { return int(p.NameLen) + int(p.Size) }

func (p *Replicate) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, p.Seq)
	dst = append(dst, p.Flags, p.NameLen)
	dst = binary.BigEndian.AppendUint32(dst, p.Size)
	return binary.BigEndian.AppendUint32(dst, p.CRC)
}

func (p *Replicate) parse(b []byte) error {
	if len(b) != 12 {
		return ErrBadPayload
	}
	if b[2]&^FlagFsync != 0 {
		return fmt.Errorf("%w: replicate flags 0x%02x", ErrBadField, b[2])
	}
	if int(b[3]) > MaxHousehold {
		return fmt.Errorf("%w: household length %d", ErrBadField, b[3])
	}
	if size := binary.BigEndian.Uint32(b[4:]); size > MaxBlob {
		return fmt.Errorf("%w: blob size %d", ErrBadField, size)
	}
	p.Seq = binary.BigEndian.Uint16(b[0:])
	p.Flags = b[2]
	p.NameLen = b[3]
	p.Size = binary.BigEndian.Uint32(b[4:])
	p.CRC = binary.BigEndian.Uint32(b[8:])
	return nil
}

// Handoff transfers tenant ownership between peers. The transfer shape
// is Replicate's (header frame, then name and blob raw on the stream)
// plus the sender's membership epoch: a receiver rejects handoffs from a
// stale epoch so a partitioned ex-owner cannot re-seed a tenant it no
// longer owns. Once the receiver acks, it owns the tenant and the
// sender must evict it and redirect its nodes.
type Handoff struct {
	Seq     uint16
	Epoch   uint32 // sender's membership epoch
	Flags   uint8  // FlagFsync is the only defined bit
	NameLen uint8  // household name length, at most MaxHousehold
	Size    uint32 // checkpoint blob length, at most MaxBlob
	CRC     uint32 // IEEE CRC-32 of the blob bytes
}

// Type implements Packet.
func (*Handoff) Type() Type { return TypeHandoff }

// BodyLen returns how many raw bytes follow the frame on the stream.
func (p *Handoff) BodyLen() int { return int(p.NameLen) + int(p.Size) }

func (p *Handoff) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, p.Seq)
	dst = binary.BigEndian.AppendUint32(dst, p.Epoch)
	dst = append(dst, p.Flags, p.NameLen)
	dst = binary.BigEndian.AppendUint32(dst, p.Size)
	return binary.BigEndian.AppendUint32(dst, p.CRC)
}

func (p *Handoff) parse(b []byte) error {
	if len(b) != 16 {
		return ErrBadPayload
	}
	if b[6]&^FlagFsync != 0 {
		return fmt.Errorf("%w: handoff flags 0x%02x", ErrBadField, b[6])
	}
	if int(b[7]) > MaxHousehold {
		return fmt.Errorf("%w: household length %d", ErrBadField, b[7])
	}
	if size := binary.BigEndian.Uint32(b[8:]); size > MaxBlob {
		return fmt.Errorf("%w: blob size %d", ErrBadField, size)
	}
	p.Seq = binary.BigEndian.Uint16(b[0:])
	p.Epoch = binary.BigEndian.Uint32(b[2:])
	p.Flags = b[6]
	p.NameLen = b[7]
	p.Size = binary.BigEndian.Uint32(b[8:])
	p.CRC = binary.BigEndian.Uint32(b[12:])
	return nil
}

// RangeClaim announces that the peer at Addr owns the inclusive ring-
// slot range [Start, End] as of membership epoch Epoch. A peer's
// ownership is rarely one contiguous run, so a rebalance emits one claim
// per run. Receivers route and redirect accordingly and hand off any
// resident tenants that fall inside the range.
type RangeClaim struct {
	Seq   uint16
	Epoch uint32 // membership epoch the claim belongs to
	Start uint16 // first owned slot
	End   uint16 // last owned slot (inclusive; >= Start)
	Addr  string // claimant's peer-ring address, at most MaxAddr bytes
}

// Type implements Packet.
func (*RangeClaim) Type() Type { return TypeRangeClaim }

func (p *RangeClaim) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, p.Seq)
	dst = binary.BigEndian.AppendUint32(dst, p.Epoch)
	dst = binary.BigEndian.AppendUint16(dst, p.Start)
	dst = binary.BigEndian.AppendUint16(dst, p.End)
	dst = append(dst, byte(len(p.Addr)))
	return append(dst, p.Addr...)
}

func (p *RangeClaim) parse(b []byte) error {
	if len(b) < 11 {
		return ErrBadPayload
	}
	start := binary.BigEndian.Uint16(b[6:])
	end := binary.BigEndian.Uint16(b[8:])
	if end < start {
		return fmt.Errorf("%w: slot range [%d, %d]", ErrBadField, start, end)
	}
	n := int(b[10])
	if n > MaxAddr {
		return fmt.Errorf("%w: claim address length %d", ErrBadField, n)
	}
	if len(b) != 11+n {
		return ErrBadPayload
	}
	p.Seq = binary.BigEndian.Uint16(b[0:])
	p.Epoch = binary.BigEndian.Uint32(b[2:])
	p.Start = start
	p.End = end
	p.Addr = string(b[11 : 11+n])
	return nil
}

// MaxFrame is the size of the largest possible frame: header (4 bytes),
// a full payload and the CRC trailer.
const MaxFrame = 6 + MaxPayload

// AppendFrame appends p's complete encoded frame to dst and returns the
// extended slice:
//
//	magic(1) version(1) type(1) len(1) payload(len) crc16(2)
//
// The CRC covers version, type, length and payload. This is the
// allocation-free core of the codec: with enough capacity in dst it never
// touches the heap. On error dst is returned truncated to its original
// length.
//
//coreda:hotpath
func AppendFrame(dst []byte, p Packet) ([]byte, error) {
	start := len(dst)
	dst = append(dst, Magic, Version, byte(p.Type()), 0)
	dst = p.appendPayload(dst)
	n := len(dst) - start - 4
	if n > MaxPayload {
		return dst[:start], ErrOversized
	}
	dst[start+3] = byte(n)
	crc := CRC16(dst[start+1:])
	return binary.BigEndian.AppendUint16(dst, crc), nil
}

// Frame is a reusable decode target: one union holding every packet type,
// so a per-connection Frame lets the serving path parse traffic without a
// heap allocation per packet. Kind selects the active member; Packet
// returns it behind the Packet interface.
//
// The one allocation DecodeInto cannot avoid is string fields (Go
// strings are immutable, so the bytes must be copied out of the frame
// buffer): the Hello household and the peer-protocol addresses. Both are
// handshake/control traffic, not per-event frames.
type Frame struct {
	Kind       Type
	UsageStart UsageStart
	UsageEnd   UsageEnd
	LEDCommand LEDCommand
	Ack        Ack
	Heartbeat  Heartbeat
	Hello      Hello
	PeerHello  PeerHello
	Redirect   Redirect
	Replicate  Replicate
	Handoff    Handoff
	RangeClaim RangeClaim
}

// Packet returns the active member as a Packet. The returned value
// aliases the Frame: it is only valid until the next DecodeInto/ReadFrame
// on the same Frame.
func (f *Frame) Packet() Packet {
	switch f.Kind {
	case TypeUsageStart:
		return &f.UsageStart
	case TypeUsageEnd:
		return &f.UsageEnd
	case TypeLEDCommand:
		return &f.LEDCommand
	case TypeAck:
		return &f.Ack
	case TypeHeartbeat:
		return &f.Heartbeat
	case TypeHello:
		return &f.Hello
	case TypePeerHello:
		return &f.PeerHello
	case TypeRedirect:
		return &f.Redirect
	case TypeReplicate:
		return &f.Replicate
	case TypeHandoff:
		return &f.Handoff
	case TypeRangeClaim:
		return &f.RangeClaim
	default:
		return nil
	}
}

// detach returns a heap copy of the active member, independent of the
// Frame — the compatibility shim under ReadPacket.
func (f *Frame) detach() Packet {
	switch f.Kind {
	case TypeUsageStart:
		p := f.UsageStart
		return &p
	case TypeUsageEnd:
		p := f.UsageEnd
		return &p
	case TypeLEDCommand:
		p := f.LEDCommand
		return &p
	case TypeAck:
		p := f.Ack
		return &p
	case TypeHeartbeat:
		p := f.Heartbeat
		return &p
	case TypeHello:
		p := f.Hello
		return &p
	case TypePeerHello:
		p := f.PeerHello
		return &p
	case TypeRedirect:
		p := f.Redirect
		return &p
	case TypeReplicate:
		p := f.Replicate
		return &p
	case TypeHandoff:
		p := f.Handoff
		return &p
	case TypeRangeClaim:
		p := f.RangeClaim
		return &p
	default:
		return nil
	}
}

// DecodeInto parses one complete frame produced by AppendFrame into f,
// reusing f's storage instead of allocating a packet.
//
//coreda:hotpath
func DecodeInto(f *Frame, frame []byte) error {
	if len(frame) < 6 {
		return ErrShortFrame
	}
	if frame[0] != Magic {
		return ErrBadMagic
	}
	if frame[1] != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, frame[1])
	}
	n := int(frame[3])
	if n > MaxPayload {
		return ErrOversized
	}
	if len(frame) != 6+n {
		return ErrShortFrame
	}
	want := binary.BigEndian.Uint16(frame[4+n:])
	if got := CRC16(frame[1 : 4+n]); got != want {
		return fmt.Errorf("%w: got 0x%04x want 0x%04x", ErrBadCRC, got, want)
	}
	body := frame[4 : 4+n]
	switch t := Type(frame[2]); t {
	case TypeUsageStart:
		f.Kind = t
		return f.UsageStart.parse(body)
	case TypeUsageEnd:
		f.Kind = t
		return f.UsageEnd.parse(body)
	case TypeLEDCommand:
		f.Kind = t
		return f.LEDCommand.parse(body)
	case TypeAck:
		f.Kind = t
		return f.Ack.parse(body)
	case TypeHeartbeat:
		f.Kind = t
		return f.Heartbeat.parse(body)
	case TypeHello:
		f.Kind = t
		return f.Hello.parse(body)
	case TypePeerHello:
		f.Kind = t
		return f.PeerHello.parse(body)
	case TypeRedirect:
		f.Kind = t
		return f.Redirect.parse(body)
	case TypeReplicate:
		f.Kind = t
		return f.Replicate.parse(body)
	case TypeHandoff:
		f.Kind = t
		return f.Handoff.parse(body)
	case TypeRangeClaim:
		f.Kind = t
		return f.RangeClaim.parse(body)
	default:
		return fmt.Errorf("%w: 0x%02x", ErrUnknownType, byte(t))
	}
}

// bufPool recycles frame buffers across Writers, so short-lived
// connections do not each pay a buffer allocation. Pool contents are raw
// bytes that every use fully overwrites before writing, which is why
// pooling here cannot perturb what goes on the wire (see DESIGN.md §12:
// sync.Pool is sanctioned only in the serving layer).
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4*MaxFrame)
		return &b
	},
}

// Writer writes frames to an underlying byte stream (e.g. a TCP
// connection). It is not safe for concurrent use; wrap with a mutex if
// multiple goroutines share it.
//
// Frames can either be written one at a time (WritePacket) or queued with
// QueuePacket and flushed in one underlying Write (Flush) — the batched
// path the rtbridge server uses to amortize syscalls across a burst of
// acks and LED commands. The frame buffer is pooled: call Release when
// the Writer is done to recycle it.
type Writer struct {
	w   io.Writer
	buf *[]byte // pooled; nil until first use and after Release
}

// NewWriter returns a frame writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WritePacket encodes and writes one packet (any queued frames are
// flushed with it, in order).
func (w *Writer) WritePacket(p Packet) error {
	if err := w.QueuePacket(p); err != nil {
		return err
	}
	return w.Flush()
}

// QueuePacket encodes one packet into the pending buffer without writing
// to the underlying stream. A failed encode leaves the pending buffer
// unchanged.
//
//coreda:hotpath
func (w *Writer) QueuePacket(p Packet) error {
	if w.buf == nil {
		w.buf = bufPool.Get().(*[]byte)
	}
	b, err := AppendFrame(*w.buf, p)
	if err != nil {
		return err
	}
	*w.buf = b
	return nil
}

// Buffered returns the number of pending bytes queued and not yet
// flushed.
func (w *Writer) Buffered() int {
	if w.buf == nil {
		return 0
	}
	return len(*w.buf)
}

// Flush writes every queued frame in one Write call. It is a no-op with
// nothing queued. The buffer is retained (emptied) for the next queue.
func (w *Writer) Flush() error {
	if w.buf == nil || len(*w.buf) == 0 {
		return nil
	}
	_, err := w.w.Write(*w.buf)
	*w.buf = (*w.buf)[:0]
	return err
}

// Release returns the frame buffer to the pool, discarding anything still
// queued. The Writer remains usable — the next QueuePacket draws a fresh
// buffer — but callers normally Release once, when the connection closes.
func (w *Writer) Release() {
	if w.buf == nil {
		return
	}
	*w.buf = (*w.buf)[:0]
	bufPool.Put(w.buf)
	w.buf = nil
}

// Reader reads frames from an underlying byte stream, resynchronizing on
// the magic byte after corruption. Its frame buffer is inline (frames are
// bounded at MaxFrame bytes), so steady-state reads never allocate.
type Reader struct {
	r   io.Reader
	buf [MaxFrame]byte
}

// NewReader returns a frame reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// ReadPacket reads the next valid frame, skipping garbage bytes until a
// frame parses, and returns a freshly allocated packet. It returns the
// underlying stream error (e.g. io.EOF) when the stream ends. Hot paths
// should prefer ReadFrame, which parses into a reusable Frame instead.
func (r *Reader) ReadPacket() (Packet, error) {
	var f Frame
	if err := r.ReadFrame(&f); err != nil {
		return nil, err
	}
	return f.detach(), nil
}

// ReadFrame reads the next valid frame into f, skipping garbage bytes
// until a frame parses — the allocation-free read path (Hello excepted
// for its household string). It returns the underlying stream error
// (e.g. io.EOF) when the stream ends.
//
//coreda:hotpath
func (r *Reader) ReadFrame(f *Frame) error {
	for {
		// Hunt for the magic byte.
		if err := r.readFull(r.buf[:1]); err != nil {
			return err
		}
		if r.buf[0] != Magic {
			continue
		}
		// Header: version, type, length.
		if err := r.readFull(r.buf[1:4]); err != nil {
			return err
		}
		n := int(r.buf[3])
		if n > MaxPayload {
			continue // implausible length: resync
		}
		if err := r.readFull(r.buf[4 : 6+n]); err != nil {
			return err
		}
		if err := DecodeInto(f, r.buf[:6+n]); err != nil {
			// Corrupt frame: resync on the next magic byte.
			continue
		}
		return nil
	}
}

func (r *Reader) readFull(b []byte) error {
	_, err := io.ReadFull(r.r, b)
	return err
}
