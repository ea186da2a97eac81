package store

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"sieve/internal/labels"
)

// referenceState folds a database's change log into the map of (camera,
// frame) results it describes: every Put is logged, so this is the state
// the index must hold, rebuilt without it.
func referenceState(t *testing.T, db *ResultsDB) map[string]map[int]labels.Set {
	t.Helper()
	d, err := db.DeltaSince(0)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]map[int]labels.Set)
	for _, e := range d.Entries {
		if m[e.Camera] == nil {
			m[e.Camera] = make(map[int]labels.Set)
		}
		m[e.Camera][e.Frame] = e.Labels
	}
	return m
}

// referenceTrack is Track as it stood before the frame index: the sorted
// frame IDs walked against every frame of [0, numFrames), with the negative
// numFrames the old code panicked on read as an empty track.
func referenceTrack(m map[int]labels.Set, numFrames int) labels.Track {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	tr := make(labels.Track, max(numFrames, 0))
	var cur labels.Set
	k := 0
	for i := 0; i < numFrames; i++ {
		for k < len(ids) && ids[k] <= i {
			cur = m[ids[k]]
			k++
		}
		tr[i] = cur
	}
	return tr
}

// referenceQuery is Query as it stood before the frame index, over
// referenceTrack, with a negative from read as 0.
func referenceQuery(m map[int]labels.Set, class string, from, to int) []int {
	tr := referenceTrack(m, to)
	var out []int
	for i := max(from, 0); i < to && i < len(tr); i++ {
		if tr[i].Contains(class) {
			out = append(out, i)
		}
	}
	return out
}

// referenceLabelsAt is LabelsAt as a scan of every stored frame.
func referenceLabelsAt(m map[int]labels.Set, frameID int) labels.Set {
	best := -1
	var out labels.Set
	first := true
	for id, ls := range m {
		if id <= frameID && (first || id > best) {
			best, out, first = id, ls, false
		}
	}
	return out
}

// referenceMaxFrame is MaxFrame as a scan of every stored frame.
func referenceMaxFrame(m map[int]labels.Set) int {
	best := -1
	for id := range m {
		if id > best {
			best = id
		}
	}
	return best
}

var queryClasses = []string{"car", "bus", "truck", "person"}

// FuzzQueryMatchesTrack holds the index-backed reads to the map they
// replace. Each op is three bytes: op, a, b. op%4 picks a Put on the
// database (camera a, frame int8(b)/4 — negative, out of order and
// duplicate frames all occur — label set op/4), a Put on a side database,
// a Merge of the side database into the main one (a conflict must leave it
// unchanged), or the side database's log from cursor a applied to the
// main one as the next delta. After every op, Query over [int8(a)/2,
// int8(b)/2) — from > to and to past the last frame included — must
// equal the old Track walk for every camera and class, and Track,
// LabelsAt, MaxFrame, AnalysedFrames and Get the map scans. Inputs are cut
// at 48 ops: every op re-checks the whole state, so a longer input costs
// quadratic time and the engine stalls minimising it.
func FuzzQueryMatchesTrack(f *testing.F) {
	f.Add([]byte{0, 0, 40, 4, 0, 8, 8, 0, 20, 0, 0, 0xf0, 2, 0, 0, 1, 1, 44, 2, 0, 0})
	f.Add([]byte{1, 0, 4, 5, 0, 8, 3, 0, 0, 2, 0x80, 0x7f, 12, 0, 4, 2, 1, 16})
	f.Add([]byte{0, 1, 0xfc, 0, 1, 0, 0, 1, 4, 4, 1, 0, 2, 0xf8, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		db, side := NewResultsDB(), NewResultsDB()
		data = data[:min(len(data), 3*48)]
		for len(data) >= 3 {
			op, a, b := data[0], data[1], data[2]
			data = data[3:]
			cam := fuzzCameras[int(a)%len(fuzzCameras)]
			ls := fuzzSets[int(op/4)%len(fuzzSets)]
			switch op % 4 {
			case 0:
				db.Put(cam, int(int8(b))/4, ls)
			case 1:
				side.Put(cam, int(int8(b))/4, ls)
			case 2:
				before, _ := db.MarshalIndent()
				v := db.Version()
				var mc *MergeConflictError
				if err := db.Merge(side); err != nil {
					after, _ := db.MarshalIndent()
					if !errors.As(err, &mc) || string(after) != string(before) || db.Version() != v {
						t.Fatalf("Merge failed with %v and moved the database from %d to %d", err, v, db.Version())
					}
				}
			case 3:
				d, err := side.DeltaSince(int64(a) % (side.Version() + 1))
				if err != nil {
					t.Fatal(err)
				}
				d.To = db.Version() + d.To - d.From
				d.From = db.Version()
				if err := db.ApplyDelta(d); err != nil {
					t.Fatal(err)
				}
			}
			checkIndexMatchesMap(t, db, int(int8(a))/2, int(int8(b))/2)
		}
	})
}

// checkIndexMatchesMap compares every index-backed read of db with the
// map-scan oracles over the state db's log describes.
func checkIndexMatchesMap(t *testing.T, db *ResultsDB, from, to int) {
	t.Helper()
	state := referenceState(t, db)
	for _, cam := range append(fuzzCameras[:len(fuzzCameras):len(fuzzCameras)], "cam-none") {
		m := state[cam]
		for _, class := range queryClasses {
			got, want := db.Query(cam, class, from, to), referenceQuery(m, class, from, to)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Query(%s, %d, %d) = %#v, want %#v", cam, class, from, to, got, want)
			}
		}
		if got, want := db.Track(cam, to), referenceTrack(m, to); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Track(%d) = %#v, want %#v", cam, to, got, want)
		}
		for _, id := range []int{from, to, from - 1, to - 1} {
			if got, want := db.LabelsAt(cam, id), referenceLabelsAt(m, id); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: LabelsAt(%d) = %#v, want %#v", cam, id, got, want)
			}
			got, ok := db.Get(cam, id)
			want, wantOK := m[id]
			if ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Get(%d) = %#v, %v, want %#v, %v", cam, id, got, ok, want, wantOK)
			}
		}
		if got, want := db.MaxFrame(cam), referenceMaxFrame(m); got != want {
			t.Fatalf("%s: MaxFrame = %d, want %d", cam, got, want)
		}
		want := make([]int, 0, len(m))
		for id := range m {
			want = append(want, id)
		}
		sort.Ints(want)
		if got := db.AnalysedFrames(cam); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: AnalysedFrames = %v, want %v", cam, got, want)
		}
	}
}
