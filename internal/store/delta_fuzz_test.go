package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"sieve/internal/labels"
)

var fuzzCameras = []string{"cam-a", "cam-b", "cam-c"}

var fuzzSets = []labels.Set{
	labels.NewSet("car"), labels.NewSet("bus"), labels.NewSet("bus", "car"),
	labels.NewSet("truck", "car"), labels.NewSet(),
}

// FuzzApplyDelta replays a source database's change log into a replica the
// way delta sync does, through cuts that arrive duplicated, overlapping,
// after a gap, or with a span that does not match their entries. The
// replica resyncs from its own cursor whenever a delta is refused; at the
// end it must marshal to the source's bytes. Arbitrary Delta values go to
// a second database, which must never panic, must refuse them with
// ErrDeltaCursor or else end at their To.
//
// Each op is three bytes: op, a, b. op%4 picks Put on the source (camera
// a, frame b, label set op/4), a well-formed cut [a, b] of the source's
// log, a cut whose To is off its entry count, or an arbitrary delta whose
// From and To are the next sixteen bytes.
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{0, 0, 1, 4, 1, 2, 8, 2, 3, 1, 0, 3, 1, 0, 3, 0, 1, 9, 5, 1, 1, 2, 0, 3})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 1, 1, 2, 0, 1, 6, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{3, 9, 9, 0x80, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		src, replica, junk := NewResultsDB(), NewResultsDB(), NewResultsDB()
		apply := func(d Delta) {
			t.Helper()
			v := replica.Version()
			err := replica.ApplyDelta(d)
			if err != nil {
				if !errors.Is(err, ErrDeltaCursor) {
					t.Fatalf("ApplyDelta(%d..%d, %d entries) at %d: %v", d.From, d.To, len(d.Entries), v, err)
				}
				if replica.Version() != v {
					t.Fatalf("refused delta moved the replica from %d to %d", v, replica.Version())
				}
				rest, err := src.DeltaSince(v)
				if err != nil {
					t.Fatalf("resync from %d: %v", v, err)
				}
				if err := replica.ApplyDelta(rest); err != nil {
					t.Fatalf("resync delta refused: %v", err)
				}
			}
		}
		for len(data) >= 3 {
			op, a, b := data[0], data[1], data[2]
			data = data[3:]
			switch op % 4 {
			case 0:
				src.Put(fuzzCameras[int(a)%len(fuzzCameras)], int(b%32), fuzzSets[int(op/4)%len(fuzzSets)])
			case 1, 2:
				v := src.Version()
				from := int64(a) % (v + 1)
				to := from + int64(b)%(v-from+1)
				d, err := src.DeltaSince(from)
				if err != nil {
					t.Fatal(err)
				}
				d.To, d.Entries = to, d.Entries[:to-from]
				if op%4 == 2 {
					d.To += 1 + int64(op/4)%3
					if op&4 != 0 {
						d.To -= 3
					}
					if d.To-d.From == int64(len(d.Entries)) {
						d.To++
					}
				}
				apply(d)
			case 3:
				var d Delta
				if len(data) >= 16 {
					d.From = int64(binary.BigEndian.Uint64(data))
					d.To = int64(binary.BigEndian.Uint64(data[8:]))
					data = data[16:]
				}
				for i := 0; i < int(a%8); i++ {
					d.Entries = append(d.Entries, DeltaEntry{Camera: fuzzCameras[(int(b)+i)%len(fuzzCameras)], Frame: int(b) - i, Labels: fuzzSets[i%len(fuzzSets)]})
				}
				v := junk.Version()
				if err := junk.ApplyDelta(d); err != nil {
					if !errors.Is(err, ErrDeltaCursor) || junk.Version() != v {
						t.Fatalf("arbitrary delta %d..%d (%d entries) at %d: %v, version now %d", d.From, d.To, len(d.Entries), v, err, junk.Version())
					}
				} else if want := max(v, d.To); junk.Version() != want {
					t.Fatalf("arbitrary delta %d..%d (%d entries) at %d: version %d, want %d", d.From, d.To, len(d.Entries), v, junk.Version(), want)
				}
			}
			if replica.Version() > src.Version() {
				t.Fatalf("replica at %d, ahead of the source at %d", replica.Version(), src.Version())
			}
		}
		rest, err := src.DeltaSince(replica.Version())
		if err != nil {
			t.Fatal(err)
		}
		if err := replica.ApplyDelta(rest); err != nil {
			t.Fatal(err)
		}
		want, _ := src.MarshalIndent()
		got, _ := replica.MarshalIndent()
		if !bytes.Equal(got, want) {
			t.Fatalf("replica diverged from the source:\n%s\nsource:\n%s", got, want)
		}
	})
}
