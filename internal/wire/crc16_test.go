package wire

import (
	"math/rand"
	"testing"
)

// crc16Bitwise is the bit-at-a-time CRC-16/CCITT-FALSE the lookup table
// is derived from, kept as the reference CRC16 must agree with.
func crc16Bitwise(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// TestCRC16MatchesBitwise checks the table-driven CRC16 against the
// bitwise reference on random inputs of every length from 0 to 256
// bytes, plus the all-zero and all-ones input of each length.
func TestCRC16MatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	buf := make([]byte, 256)
	for n := 0; n <= len(buf); n++ {
		for trial := 0; trial < 8; trial++ {
			data := buf[:n]
			switch trial {
			case 0:
				clear(data)
			case 1:
				for i := range data {
					data[i] = 0xFF
				}
			default:
				rng.Read(data)
			}
			if got, want := CRC16(data), crc16Bitwise(data); got != want {
				t.Fatalf("CRC16(% x) = 0x%04X, bitwise reference 0x%04X", data, got, want)
			}
		}
	}
}

// crcSink keeps BenchmarkCRC16's result live.
var crcSink uint16

func BenchmarkCRC16(b *testing.B) {
	// The checksummed span of the largest frame: version, type, length
	// and a full payload.
	data := make([]byte, 3+MaxPayload)
	for i := range data {
		data[i] = byte(i * 7)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		crcSink = CRC16(data)
	}
}
