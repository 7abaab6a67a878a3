package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
)

// The CKPT binary checkpoint format (version 1). Layout, in order:
//
//	"CKPT"                          4-byte magic
//	version                         1 byte
//	uvarint len(user)   | user      UTF-8 bytes
//	uvarint len(act)    | activity  UTF-8 bytes
//	uvarint nroutines
//	  per routine: uvarint nsteps, then uvarint per step ID
//	uvarint npolicies
//	  per policy: uvarint states, uvarint actions, uvarint episodes,
//	              uvarint packed epsilon, then uvarint packed Q value
//	              (states*actions of them, row-major)
//	crc32(IEEE)                     4 bytes little-endian, over everything above
//
// Floats are packed as uvarint(bits.ReverseBytes64(Float64bits(v))):
// byte-reversal moves the mantissa's low (usually zero) bits to the high
// end of the varint, so the zeros that dominate a young Q-table cost one
// byte each instead of eight. The trailing CRC is what save/load
// integrity and the torn-read fallback key off — a truncated or
// bit-flipped file fails the checksum before any allocation happens.
//
// Either nroutines == npolicies (multi-policy checkpoints: one Q-table
// per routine) or nroutines == 0 (single-policy checkpoints, which have
// no routine set).
const (
	ckptMagic   = "CKPT"
	ckptVersion = 1

	// ckptMinSize is magic + version + CRC: the smallest prefix worth
	// looking at.
	ckptMinSize = len(ckptMagic) + 1 + 4

	// Decode-side caps. They bound what a hostile header can make the
	// decoder allocate before the per-element "is there a byte left for
	// each element" checks take over.
	maxCkptName     = 1 << 10
	maxCkptRoutines = 1 << 12
	maxCkptPolicies = 1 << 12
	maxCkptDim      = 1 << 20 // states or actions of one policy
)

// CheckpointPolicy is one Q-table plus its training progress inside a
// Checkpoint.
type CheckpointPolicy struct {
	States   int
	Actions  int
	Episodes int
	Epsilon  float64
	Q        []float64 // row-major, States*Actions values
}

// Checkpoint is the decoded form of one persisted tenant: the reusable
// unit the CKPT codec encodes from and decodes into. Like wire's Frame,
// it is designed for reuse — DecodeCheckpoint grows its slices once and
// then re-fills them in place, so steady-state re-decode of a tenant
// allocates nothing.
type Checkpoint struct {
	User     string
	Activity string
	// Routines is the routine set of a multi-policy checkpoint (empty
	// for single-policy files); when non-empty it is parallel to
	// Policies.
	Routines EncodedRoutines
	Policies []CheckpointPolicy
}

// ckptValidate checks the invariants AppendCheckpoint relies on. Split
// out of the hot encoder so its error formatting stays off the fast
// path.
func ckptValidate(c *Checkpoint) error {
	if len(c.User) > maxCkptName || len(c.Activity) > maxCkptName {
		return fmt.Errorf("store: checkpoint name too long (%d/%d bytes)", len(c.User), len(c.Activity))
	}
	if len(c.Policies) == 0 || len(c.Policies) > maxCkptPolicies {
		return fmt.Errorf("store: checkpoint has %d policies", len(c.Policies))
	}
	if len(c.Routines) != 0 && len(c.Routines) != len(c.Policies) {
		return fmt.Errorf("store: checkpoint has %d routines and %d policies", len(c.Routines), len(c.Policies))
	}
	if len(c.Routines) > maxCkptRoutines {
		return fmt.Errorf("store: checkpoint has %d routines", len(c.Routines))
	}
	for i := range c.Policies {
		p := &c.Policies[i]
		if p.States <= 0 || p.Actions <= 0 || p.States > maxCkptDim || p.Actions > maxCkptDim ||
			len(p.Q) != p.States*p.Actions || p.Episodes < 0 {
			return fmt.Errorf("store: checkpoint policy %d malformed (%dx%d, %d values, %d episodes)",
				i, p.States, p.Actions, len(p.Q), p.Episodes)
		}
	}
	return nil
}

// AppendCheckpoint appends the CKPT encoding of c to dst and returns the
// extended buffer. On error dst is returned unchanged. Steady-state
// encode into a buffer that has reached capacity allocates nothing.
//
//coreda:hotpath
func AppendCheckpoint(dst []byte, c *Checkpoint) ([]byte, error) {
	if err := ckptValidate(c); err != nil {
		return dst, err
	}
	start := len(dst)
	dst = append(dst, ckptMagic...)
	dst = append(dst, ckptVersion)
	dst = binary.AppendUvarint(dst, uint64(len(c.User)))
	dst = append(dst, c.User...)
	dst = binary.AppendUvarint(dst, uint64(len(c.Activity)))
	dst = append(dst, c.Activity...)
	dst = binary.AppendUvarint(dst, uint64(len(c.Routines)))
	for _, r := range c.Routines {
		dst = binary.AppendUvarint(dst, uint64(len(r)))
		for _, s := range r {
			dst = binary.AppendUvarint(dst, uint64(s))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.Policies)))
	for i := range c.Policies {
		p := &c.Policies[i]
		dst = binary.AppendUvarint(dst, uint64(p.States))
		dst = binary.AppendUvarint(dst, uint64(p.Actions))
		dst = binary.AppendUvarint(dst, uint64(p.Episodes))
		dst = binary.AppendUvarint(dst, packFloat(p.Epsilon))
		for _, v := range p.Q {
			dst = binary.AppendUvarint(dst, packFloat(v))
		}
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:])), nil
}

// packFloat byte-reverses the IEEE 754 bits so the usually-zero mantissa
// tail lands in the varint's high bits (see the format comment).
func packFloat(v float64) uint64 { return bits.ReverseBytes64(math.Float64bits(v)) }

func unpackFloat(u uint64) float64 { return math.Float64frombits(bits.ReverseBytes64(u)) }

// ckptUvarint reads one uvarint at off, returning the value and the new
// offset. ok is false on truncation or varint overflow.
func ckptUvarint(b []byte, off int) (v uint64, next int, ok bool) {
	v, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, off, false
	}
	return v, off + n, true
}

// errCkpt is the base error all malformed-CKPT decode failures wrap.
var errCkpt = fmt.Errorf("store: malformed CKPT checkpoint")

// updateString returns s when it already equals b (string/byte
// comparison does not allocate), else a fresh copy. It is the one
// allocation site of a steady-state binary decode, kept out of the
// annotated hot function — noinline, or the escape would be attributed
// to the caller's line and trip the hotalloc gate for an allocation
// that only happens when the tenant's name actually changed.
//
//go:noinline
func updateString(s string, b []byte) string {
	if s == string(b) {
		return s
	}
	return string(b)
}

// decodeCkptBinary decodes a CKPT blob into c, reusing c's slices.
// Counts are validated against the bytes actually remaining (every
// element costs at least one byte), so a hostile header cannot make the
// decoder allocate more than the input's own size. The CRC is verified
// before any field is touched; on error c is left in an unspecified
// state.
//
//coreda:hotpath
func decodeCkptBinary(c *Checkpoint, data []byte) error {
	if len(data) < ckptMinSize || string(data[:4]) != ckptMagic {
		return errCkpt
	}
	if data[4] != ckptVersion {
		return fmt.Errorf("store: CKPT checkpoint has version %d, want %d", data[4], ckptVersion)
	}
	body := data[: len(data)-4 : len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return fmt.Errorf("store: CKPT checksum mismatch (torn or corrupt checkpoint)")
	}
	off := len(ckptMagic) + 1
	var n uint64
	var ok bool

	// User and activity names.
	if n, off, ok = ckptUvarint(body, off); !ok || n > maxCkptName || int(n) > len(body)-off {
		return errCkpt
	}
	c.User = updateString(c.User, body[off:off+int(n)])
	off += int(n)
	if n, off, ok = ckptUvarint(body, off); !ok || n > maxCkptName || int(n) > len(body)-off {
		return errCkpt
	}
	c.Activity = updateString(c.Activity, body[off:off+int(n)])
	off += int(n)

	// Routine set.
	if n, off, ok = ckptUvarint(body, off); !ok || n > maxCkptRoutines || int(n) > len(body)-off {
		return errCkpt
	}
	nr := int(n)
	for cap(c.Routines) < nr {
		c.Routines = append(c.Routines[:cap(c.Routines)], nil)
	}
	c.Routines = c.Routines[:nr]
	for i := 0; i < nr; i++ {
		if n, off, ok = ckptUvarint(body, off); !ok || n > uint64(len(body)-off) {
			return errCkpt
		}
		steps := c.Routines[i][:0]
		for j := 0; j < int(n); j++ {
			var s uint64
			if s, off, ok = ckptUvarint(body, off); !ok || s > math.MaxUint16 {
				return errCkpt
			}
			steps = append(steps, uint16(s))
		}
		c.Routines[i] = steps
	}

	// Policies.
	if n, off, ok = ckptUvarint(body, off); !ok || n == 0 || n > maxCkptPolicies || int(n) > len(body)-off {
		return errCkpt
	}
	np := int(n)
	if nr != 0 && nr != np {
		return fmt.Errorf("store: CKPT checkpoint has %d routines and %d policies", nr, np)
	}
	for cap(c.Policies) < np {
		c.Policies = append(c.Policies[:cap(c.Policies)], CheckpointPolicy{})
	}
	c.Policies = c.Policies[:np]
	for i := 0; i < np; i++ {
		p := &c.Policies[i]
		var st, ac, ep, eps uint64
		if st, off, ok = ckptUvarint(body, off); !ok || st == 0 || st > maxCkptDim {
			return errCkpt
		}
		if ac, off, ok = ckptUvarint(body, off); !ok || ac == 0 || ac > maxCkptDim {
			return errCkpt
		}
		if ep, off, ok = ckptUvarint(body, off); !ok || ep > math.MaxInt64 {
			return errCkpt
		}
		if eps, off, ok = ckptUvarint(body, off); !ok {
			return errCkpt
		}
		need := int(st) * int(ac)
		if need > len(body)-off {
			return errCkpt
		}
		p.States, p.Actions, p.Episodes = int(st), int(ac), int(ep)
		p.Epsilon = unpackFloat(eps)
		q := p.Q[:0]
		for j := 0; j < need; j++ {
			var v uint64
			if v, off, ok = ckptUvarint(body, off); !ok {
				return errCkpt
			}
			q = append(q, unpackFloat(v))
		}
		p.Q = q
	}
	if off != len(body) {
		return fmt.Errorf("store: CKPT checkpoint has %d trailing bytes", len(body)-off)
	}
	return nil
}

// Format names a checkpoint's on-disk encoding, as SniffFormat reports
// it. Every write is the binary CKPT format; JSON, the pre-binary
// encoding, remains readable forever (loads sniff the content) and
// migrates to binary on the next write.
type Format uint8

// Checkpoint encodings.
const (
	FormatBinary Format = iota
	FormatJSON
)

func (f Format) String() string {
	switch f {
	case FormatBinary:
		return "binary"
	case FormatJSON:
		return "json"
	}
	return fmt.Sprintf("Format(%d)", uint8(f))
}

// SniffFormat reports the encoding of a checkpoint blob: the CKPT magic
// means binary, a leading '{' (after optional whitespace) means JSON.
// ok is false for anything else — including a blob too torn to tell.
func SniffFormat(data []byte) (f Format, ok bool) {
	if len(data) >= len(ckptMagic) && string(data[:4]) == ckptMagic {
		return FormatBinary, true
	}
	for _, b := range data {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '{':
			return FormatJSON, true
		default:
			return 0, false
		}
	}
	return 0, false
}

// DecodeCheckpoint decodes a checkpoint blob of either format into c.
// Binary blobs reuse c's slices (steady-state re-decode of the same
// tenant allocates nothing); JSON blobs — legacy multi-policy or
// single-policy files — take the allocating path, which only runs once
// per migration since the next save rewrites the blob in binary.
func DecodeCheckpoint(c *Checkpoint, data []byte) error {
	f, ok := SniffFormat(data)
	if !ok {
		return fmt.Errorf("store: unrecognized checkpoint format")
	}
	if f == FormatBinary {
		return decodeCkptBinary(c, data)
	}
	return decodeJSONCheckpoint(c, data)
}

// decodeJSONCheckpoint loads a legacy JSON checkpoint — a
// MultiPolicyFile or a single PolicyFile — into c, applying the same
// validation the JSON loaders always had.
func decodeJSONCheckpoint(c *Checkpoint, data []byte) error {
	var mf MultiPolicyFile
	if err := json.Unmarshal(data, &mf); err != nil {
		return fmt.Errorf("store: parse checkpoint: %w", err)
	}
	if len(mf.Policies) > 0 {
		if mf.Version != multiPolicyVersion {
			return fmt.Errorf("store: multi-policy checkpoint has version %d, want %d", mf.Version, multiPolicyVersion)
		}
		if len(mf.Routines) != len(mf.Policies) {
			return fmt.Errorf("store: multi-policy checkpoint has %d routines and %d policies", len(mf.Routines), len(mf.Policies))
		}
		c.User, c.Activity = mf.User, mf.Activity
		c.Routines = mf.Routines
		c.Policies = c.Policies[:0]
		for i := range mf.Policies {
			p := &mf.Policies[i]
			if p.States <= 0 || p.Actions <= 0 || len(p.Q) != p.States*p.Actions {
				return fmt.Errorf("store: multi-policy checkpoint: policy %d malformed", i)
			}
			c.Policies = append(c.Policies, CheckpointPolicy{
				States:   p.States,
				Actions:  p.Actions,
				Episodes: p.Episodes,
				Epsilon:  p.Epsilon,
				Q:        p.Q,
			})
		}
		return nil
	}
	var pf PolicyFile
	if err := json.Unmarshal(data, &pf); err != nil {
		return fmt.Errorf("store: parse checkpoint: %w", err)
	}
	if pf.States == 0 && pf.Actions == 0 && pf.Q == nil {
		return fmt.Errorf("store: checkpoint is neither a policy nor a multi-policy file")
	}
	if pf.Version != policyVersion {
		return fmt.Errorf("store: policy checkpoint has version %d, want %d", pf.Version, policyVersion)
	}
	if pf.States <= 0 || pf.Actions <= 0 || len(pf.Q) != pf.States*pf.Actions {
		return fmt.Errorf("store: policy checkpoint is malformed (%dx%d, %d values)", pf.States, pf.Actions, len(pf.Q))
	}
	c.User, c.Activity = pf.User, pf.Activity
	c.Routines = nil
	c.Policies = append(c.Policies[:0], CheckpointPolicy{
		States:   pf.States,
		Actions:  pf.Actions,
		Episodes: pf.Episodes,
		Epsilon:  pf.Epsilon,
		Q:        pf.Q,
	})
	return nil
}
