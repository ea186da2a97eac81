package nn

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Activation wire record ("SVAR"): the serialized form of one intermediate
// activation Batch, shipped edge→cloud when a forward pass is split at a
// partition cut. The byte layout is normative — see PROTOCOL.md §SVAR,
// spec-linted by actwire_spec_test.go — and bit-exact: float32 values
// travel as their IEEE-754 bit patterns, so an encode/decode round trip
// reproduces the tensor element for element and the cloud half of a split
// forward computes on exactly the values the edge half produced.
const (
	// ActivationMagic opens every record ("SVAR").
	ActivationMagic = "SVAR"
	// ActivationVersion is the current layout version.
	ActivationVersion = 1
	// ActivationHeaderBytes is the fixed header size: magic (4), version
	// (1), flags (1), reserved (2), then N, C, H, W as big-endian uint32.
	ActivationHeaderBytes = 24
)

// ActivationWireBytes returns the exact record size for an n×c×h×w batch:
// the fixed header plus 4 bytes per float32 element.
func ActivationWireBytes(n, c, h, w int) int64 {
	return ActivationHeaderBytes + 4*int64(n)*int64(c)*int64(h)*int64(w)
}

// AppendActivationRecord serializes b into an activation wire record
// appended to dst (pass dst[:0] of a reused buffer for the zero-alloc
// steady state). Elements are written item-major in CHW order, each as the
// big-endian IEEE-754 bit pattern of the float32.
func AppendActivationRecord(dst []byte, b *Batch) []byte {
	var hdr [ActivationHeaderBytes]byte
	copy(hdr[:4], ActivationMagic)
	hdr[4] = ActivationVersion
	// hdr[5] flags and hdr[6:8] reserved stay zero in version 1.
	binary.BigEndian.PutUint32(hdr[8:], uint32(b.N))
	binary.BigEndian.PutUint32(hdr[12:], uint32(b.C))
	binary.BigEndian.PutUint32(hdr[16:], uint32(b.H))
	binary.BigEndian.PutUint32(hdr[20:], uint32(b.W))
	dst = append(dst, hdr[:]...)
	var el [4]byte
	for _, v := range b.Data {
		binary.BigEndian.PutUint32(el[:], math.Float32bits(v))
		dst = append(dst, el[:]...)
	}
	return dst
}

// DecodeActivationRecord parses an activation wire record into `into`,
// reshaping it to the header's dimensions (reusing its storage when the
// capacity suffices). The payload length must match the header exactly —
// a record is a complete tensor, never a prefix.
func DecodeActivationRecord(data []byte, into *Batch) error {
	if len(data) < ActivationHeaderBytes {
		return fmt.Errorf("nn: activation record: %d bytes, want at least the %d-byte header",
			len(data), ActivationHeaderBytes)
	}
	if string(data[:4]) != ActivationMagic {
		return fmt.Errorf("nn: activation record: bad magic %q", data[:4])
	}
	if v := data[4]; v != ActivationVersion {
		return fmt.Errorf("nn: activation record: version %d, want %d", v, ActivationVersion)
	}
	var dims [4]uint32 // n, c, h, w
	for i := range dims {
		dims[i] = binary.BigEndian.Uint32(data[8+4*i:])
	}
	if dims[1] < 1 || dims[2] < 1 || dims[3] < 1 {
		return fmt.Errorf("nn: activation record: bad shape %dx%dx%dx%d", dims[0], dims[1], dims[2], dims[3])
	}
	// The payload must hold exactly n*c*h*w elements. The running product is
	// bounded by what the payload holds before each multiply, so dimensions
	// chosen to wrap it (2^31 × 2^31 × 4 × 1 is 0 mod 2^64) are rejected
	// instead of accepted with a shape the data cannot back.
	payload := data[ActivationHeaderBytes:]
	held, elems, fits := uint64(len(payload)/4), uint64(1), len(payload)%4 == 0
	for _, dim := range dims {
		if dim != 0 && elems > held/uint64(dim) {
			fits = false
			break
		}
		elems *= uint64(dim)
	}
	if !fits || elems != held {
		return fmt.Errorf("nn: activation record: %d payload bytes do not hold shape %dx%dx%dx%d at 4 bytes an element",
			len(payload), dims[0], dims[1], dims[2], dims[3])
	}
	n, c, h, w := int(dims[0]), int(dims[1]), int(dims[2]), int(dims[3])
	into.Reshape(n, c, h, w)
	for i := range into.Data {
		into.Data[i] = math.Float32frombits(binary.BigEndian.Uint32(payload[4*i:]))
	}
	return nil
}
