package wire

// crc16Table holds the CRC of every byte value shifted into a zero
// register, so CRC16 folds in a byte per lookup instead of eight
// conditional shifts.
var crc16Table = func() (t [256]uint16) {
	for i := range t {
		crc := uint16(i) << 8
		for range 8 {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}()

// CRC16 computes the CRC-16/CCITT-FALSE checksum (polynomial 0x1021,
// initial value 0xFFFF, no reflection, no final XOR) used as the frame
// trailer.
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc = crc<<8 ^ crc16Table[byte(crc>>8)^b]
	}
	return crc
}
