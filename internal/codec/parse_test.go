package codec

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"sieve/internal/bitstream"
)

// TestPairTableMatchesReader checks every entry of pairTable against the
// parse it replaces: each 12-bit prefix, followed by random bits, read by
// ReadUE then ReadSE. Where those two codes end within the prefix with a
// run of at most 62 and a non-zero level, the entry must hold that length,
// run and level; everywhere else it must be 0.
func TestPairTableMatchesReader(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	var buf [16]byte
	for prefix := range pairTable {
		for trial := 0; trial < 8; trial++ {
			rng.Read(buf[:])
			binary.BigEndian.PutUint16(buf[:], uint16(prefix<<(16-pairBits))|binary.BigEndian.Uint16(buf[:])&(1<<(16-pairBits)-1))
			r := bitstream.NewReader(buf[:])
			run, rerr := r.ReadUE()
			level, lerr := r.ReadSE()
			var wn, wrun uint
			var wlevel int32
			if rerr == nil && lerr == nil && r.BitsRead() <= pairBits && run < eobMarker && level != 0 {
				wn, wrun, wlevel = uint(r.BitsRead()), uint(run), int32(level)
			}
			e := pairTable[prefix]
			gn, grun, glevel := uint(e&0xFF), uint(e>>8&0xFF), int32(e)>>16
			if gn != wn || grun != wrun || glevel != wlevel || (wn == 0 && e != 0) {
				t.Fatalf("prefix %0*b (then %08b): entry (len %d, run %d, level %d), reader (len %d, run %d, level %d)",
					pairBits, prefix, buf[1]&(1<<(16-pairBits)-1), gn, grun, glevel, wn, wrun, wlevel)
			}
		}
	}
}

// coldPathPayload writes an I-frame of the given geometry whose blocks mix
// the codes the table parse takes with the ones it hands back to the
// reader: DC deltas and AC levels whose codes run to 63 bits, so they fall
// at every offset of the window, cut it, or outgrow what is left of it.
func coldPathPayload(w, h int, rng *rand.Rand) []byte {
	wr := bitstream.NewWriter(1024)
	wr.WriteBits(uint64(FrameI), 1)
	wr.WriteBits(85, 7)
	value := func() int64 {
		bits := []int{1, 2, 3, 5, 8, 13, 20, 26, 31}[rng.Intn(9)]
		v := 1 + rng.Int63n(1<<bits-1)
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	blocks := (w/8)*(h/8) + 2*(w/16)*(h/16)
	for b := 0; b < blocks; b++ {
		if rng.Intn(6) == 0 {
			wr.WriteBit(0)
			continue
		}
		wr.WriteBit(1)
		wr.WriteSE(value())
		for pos := 1; ; pos++ {
			run := rng.Intn(8)
			if rng.Intn(10) == 0 {
				run = rng.Intn(63)
			}
			if pos+run >= 64 || rng.Intn(12) == 0 {
				break
			}
			pos += run
			wr.WriteUE(uint64(run))
			wr.WriteSE(value())
		}
		wr.WriteUE(eobMarker)
	}
	return append([]byte(nil), wr.Bytes()...)
}

// TestDecodeColdPathMatchesReference feeds the decoders well-formed frames
// full of long codes, and every truncation of some of them, against the
// oracle: each code the table parse hands back must be read on from the
// bit it stopped at, with the oracle's pixels or its error.
func TestDecodeColdPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := Params{Width: 48, Height: 32, Quality: 85, GOPSize: 1}
	c := newDecodeChecker(t, p)
	for trial := 0; trial < 200; trial++ {
		data := coldPathPayload(p.Width, p.Height, rng)
		c.step(t, fmt.Sprintf("trial %d", trial), data)
		if trial%20 == 0 {
			for n := 1; n < len(data); n++ {
				c.step(t, fmt.Sprintf("trial %d cut to %d bytes", trial, n), data[:n])
			}
		}
	}
}
