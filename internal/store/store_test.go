package store

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"sieve/internal/codec"
	"sieve/internal/container"
	"sieve/internal/labels"
)

func TestResultsDBPutGet(t *testing.T) {
	db := NewResultsDB()
	db.Put("cam", 10, labels.NewSet("car"))
	db.Put("cam", 20, labels.NewSet("bus", "car"))

	ls, ok := db.Get("cam", 10)
	if !ok || !ls.Equal(labels.NewSet("car")) {
		t.Fatalf("Get = %v, %v", ls, ok)
	}
	if _, ok := db.Get("cam", 11); ok {
		t.Fatal("frame 11 should not exist")
	}
	if _, ok := db.Get("other", 10); ok {
		t.Fatal("unknown camera should not exist")
	}
}

func TestResultsDBPropagation(t *testing.T) {
	db := NewResultsDB()
	db.Put("cam", 5, labels.NewSet("car"))
	db.Put("cam", 15, labels.NewSet())

	if !db.LabelsAt("cam", 4).Empty() {
		t.Fatal("frame before first result should be empty")
	}
	if !db.LabelsAt("cam", 9).Equal(labels.NewSet("car")) {
		t.Fatal("frame 9 should inherit car")
	}
	if !db.LabelsAt("cam", 20).Empty() {
		t.Fatal("frame 20 should inherit the empty result at 15")
	}

	tr := db.Track("cam", 20)
	if len(tr) != 20 {
		t.Fatalf("track length %d", len(tr))
	}
	if !tr[0].Empty() || !tr[7].Contains("car") || !tr[16].Empty() {
		t.Fatalf("track propagation wrong: %v %v %v", tr[0], tr[7], tr[16])
	}
}

func TestResultsDBQuery(t *testing.T) {
	db := NewResultsDB()
	db.Put("cam", 0, labels.NewSet())
	db.Put("cam", 10, labels.NewSet("car"))
	db.Put("cam", 13, labels.NewSet())
	got := db.Query("cam", "car", 0, 20)
	if len(got) != 3 || got[0] != 10 || got[2] != 12 {
		t.Fatalf("Query = %v, want [10 11 12]", got)
	}
}

// TestResultsDBNegativeArguments: frames before 0 do not exist, so a
// negative from reads as 0 and a track of fewer than one frame is empty —
// Query used to index its track at from, and Track to make a slice of
// length numFrames, and both panicked.
func TestResultsDBNegativeArguments(t *testing.T) {
	db := NewResultsDB()
	db.Put("cam", -2, labels.NewSet("car"))
	db.Put("cam", 3, labels.NewSet("bus"))
	if got := db.Query("cam", "car", -5, 6); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("Query(car, -5, 6) = %v, want [0 1 2]", got)
	}
	if got := db.Query("cam", "car", -5, -1); got != nil {
		t.Fatalf("Query(car, -5, -1) = %#v, want nil", got)
	}
	for _, n := range []int{-3, 0} {
		if tr := db.Track("cam", n); tr == nil || len(tr) != 0 {
			t.Fatalf("Track(%d) = %#v, want an empty track", n, tr)
		}
	}
}

// BenchmarkResultsDBQuery is the query load of bench/'s archive_scan on one
// of its cameras: 100 frames, every fourth one analysed (the I-frames),
// each query for one class over [from, 100) with from stepping by 7.
// Query allocates the slice it returns, sized once, and nothing else: one
// allocation per query with a hit, 16 of 300 here have none, so allocs/op
// prints 0 and B/op is the mean answer.
func BenchmarkResultsDBQuery(b *testing.B) {
	const frames = 100
	classes := []string{"car", "bus", "truck"}
	sets := []labels.Set{labels.NewSet("car"), labels.NewSet("bus", "car"), nil, labels.NewSet("truck")}
	db := NewResultsDB()
	for i := 0; i < frames; i += 4 {
		db.Put("cam", i, sets[i/4%len(sets)])
	}
	b.ReportAllocs()
	q, hits := 0, 0
	for b.Loop() {
		hits += len(db.Query("cam", classes[q%len(classes)], q*7%frames, frames))
		q++
	}
	if hits == 0 {
		b.Fatal("no query hit anything")
	}
}

func TestResultsDBSaveLoad(t *testing.T) {
	db := NewResultsDB()
	db.Put("a", 1, labels.NewSet("car"))
	db.Put("b", 2, labels.NewSet("boat", "person"))
	path := filepath.Join(t.TempDir(), "results.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadResultsDB(path)
	if err != nil {
		t.Fatal(err)
	}
	ls, ok := loaded.Get("b", 2)
	if !ok || !ls.Equal(labels.NewSet("person", "boat")) {
		t.Fatalf("loaded = %v, %v", ls, ok)
	}
	if _, err := LoadResultsDB(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// writeStream builds a small container stream with I-frames every gop.
func writeStream(t *testing.T, n, gop int) *container.Buffer {
	t.Helper()
	buf := &container.Buffer{}
	w, err := container.NewWriter(buf, container.StreamInfo{Width: 16, Height: 16, FPS: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ft := codec.FrameP
		if i%gop == 0 {
			ft = codec.FrameI
		}
		if err := w.WriteFrame(ft, []byte{byte(i), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestEdgeStorePutOpenDelete(t *testing.T) {
	s := NewEdgeStore(0)
	buf := writeStream(t, 30, 10)
	if err := s.Put("cam1", buf); err != nil {
		t.Fatal(err)
	}
	r, err := s.Open("cam1")
	if err != nil {
		t.Fatal(err)
	}
	if r.NumFrames() != 30 {
		t.Fatalf("frames %d", r.NumFrames())
	}
	if got := s.Used(); got != buf.Size() {
		t.Fatalf("used %d, want %d", got, buf.Size())
	}
	if cams := s.Cameras(); len(cams) != 1 || cams[0] != "cam1" {
		t.Fatalf("cameras %v", cams)
	}
	s.Delete("cam1")
	if s.Used() != 0 {
		t.Fatal("delete did not reclaim quota")
	}
	if _, err := s.Open("cam1"); err == nil {
		t.Fatal("open after delete should fail")
	}
}

func TestEdgeStoreQuota(t *testing.T) {
	buf := writeStream(t, 30, 10)
	s := NewEdgeStore(buf.Size() + 10)
	if err := s.Put("cam1", buf); err != nil {
		t.Fatal(err)
	}
	other := writeStream(t, 30, 10)
	if err := s.Put("cam2", other); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("quota error = %v", err)
	}
	// Replacing the existing stream stays within quota.
	if err := s.Put("cam1", writeStream(t, 30, 10)); err != nil {
		t.Fatalf("replace failed: %v", err)
	}
}

func TestSeekEvent(t *testing.T) {
	s := NewEdgeStore(0)
	if err := s.Put("cam", writeStream(t, 50, 10)); err != nil {
		t.Fatal(err)
	}
	m, err := s.SeekEvent("cam", 25)
	if err != nil {
		t.Fatal(err)
	}
	if m.Index != 20 {
		t.Fatalf("SeekEvent(25) = frame %d, want 20", m.Index)
	}
	m, err = s.SeekEvent("cam", 20)
	if err != nil || m.Index != 20 {
		t.Fatalf("SeekEvent(20) = %d, %v", m.Index, err)
	}
	if _, err := s.SeekEvent("cam", 99); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if _, err := s.SeekEvent("ghost", 5); err == nil {
		t.Fatal("unknown camera accepted")
	}
}

func TestResultsDBConcurrentAccess(t *testing.T) {
	db := NewResultsDB()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			db.Put("cam", i, labels.NewSet("car"))
		}
	}()
	for i := 0; i < 500; i++ {
		db.LabelsAt("cam", i)
	}
	<-done
	if got := len(db.AnalysedFrames("cam")); got != 500 {
		t.Fatalf("stored %d frames", got)
	}
}

func TestResultsDBMerge(t *testing.T) {
	mk := func(puts map[string]map[int]labels.Set) *ResultsDB {
		db := NewResultsDB()
		for cam, m := range puts {
			for id, ls := range m {
				db.Put(cam, id, ls)
			}
		}
		return db
	}
	car := labels.NewSet("car")
	bus := labels.NewSet("bus")
	tests := []struct {
		name     string
		dst, src map[string]map[int]labels.Set
		want     map[string]map[int]labels.Set
		conflict *MergeConflictError
	}{
		{
			name: "disjoint cameras",
			dst:  map[string]map[int]labels.Set{"cam0": {0: car, 10: bus}},
			src:  map[string]map[int]labels.Set{"cam1": {5: car}},
			want: map[string]map[int]labels.Set{"cam0": {0: car, 10: bus}, "cam1": {5: car}},
		},
		{
			name: "same camera disjoint frames",
			dst:  map[string]map[int]labels.Set{"cam": {0: car}},
			src:  map[string]map[int]labels.Set{"cam": {10: bus}},
			want: map[string]map[int]labels.Set{"cam": {0: car, 10: bus}},
		},
		{
			name: "overlapping frames equal labels are idempotent",
			dst:  map[string]map[int]labels.Set{"cam": {0: car, 5: bus}},
			src:  map[string]map[int]labels.Set{"cam": {5: labels.NewSet("bus"), 9: car}},
			want: map[string]map[int]labels.Set{"cam": {0: car, 5: bus, 9: car}},
		},
		{
			name:     "overlapping frames different labels conflict",
			dst:      map[string]map[int]labels.Set{"cam": {0: car, 5: bus, 7: car}},
			src:      map[string]map[int]labels.Set{"cam": {5: car, 7: bus}},
			want:     map[string]map[int]labels.Set{"cam": {0: car, 5: bus, 7: car}},
			conflict: &MergeConflictError{Camera: "cam", Frame: 5, Have: bus, Incoming: car},
		},
		{
			name: "empty shard into populated",
			dst:  map[string]map[int]labels.Set{"cam": {0: car}},
			src:  nil,
			want: map[string]map[int]labels.Set{"cam": {0: car}},
		},
		{
			name: "populated shard into empty",
			dst:  nil,
			src:  map[string]map[int]labels.Set{"cam": {0: car}},
			want: map[string]map[int]labels.Set{"cam": {0: car}},
		},
		{
			name: "empty into empty",
			dst:  nil,
			src:  nil,
			want: nil,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dst, src := mk(tc.dst), mk(tc.src)
			err := dst.Merge(src)
			if tc.conflict != nil {
				var mc *MergeConflictError
				if !errors.As(err, &mc) {
					t.Fatalf("Merge error = %v, want MergeConflictError", err)
				}
				if mc.Camera != tc.conflict.Camera || mc.Frame != tc.conflict.Frame ||
					!mc.Have.Equal(tc.conflict.Have) || !mc.Incoming.Equal(tc.conflict.Incoming) {
					t.Fatalf("conflict = %+v, want %+v", mc, tc.conflict)
				}
			} else if err != nil {
				t.Fatalf("Merge: %v", err)
			}
			// A conflicting merge must leave the receiver untouched (atomic).
			want := mk(tc.want)
			got, _ := dst.MarshalIndent()
			exp, _ := want.MarshalIndent()
			if string(got) != string(exp) {
				t.Fatalf("merged state:\n%s\nwant:\n%s", got, exp)
			}
		})
	}
}

func TestResultsDBMergeSelfAndNil(t *testing.T) {
	db := NewResultsDB()
	db.Put("cam", 3, labels.NewSet("car"))
	if err := db.Merge(db); err != nil {
		t.Fatalf("self merge: %v", err)
	}
	if err := db.Merge(nil); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
	if db.Len() != 1 {
		t.Fatalf("Len = %d, want 1", db.Len())
	}
}

func TestResultsDBSaveAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.json")

	old := NewResultsDB()
	old.Put("cam", 1, labels.NewSet("bus"))
	if err := old.Save(path); err != nil {
		t.Fatal(err)
	}

	db := NewResultsDB()
	db.Put("cam", 2, labels.NewSet("car"))
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}

	// The rename replaced the old file completely, and no temp file litter
	// survives a successful save.
	got, err := LoadResultsDB(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Get("cam", 1); ok {
		t.Fatal("old contents survived the atomic replace")
	}
	if ls, ok := got.Get("cam", 2); !ok || !ls.Equal(labels.NewSet("car")) {
		t.Fatalf("reloaded labels = %v, %v", ls, ok)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0] != path {
		t.Fatalf("directory not clean after save: %v", entries)
	}

	// A save into a missing directory fails without touching path.
	if err := db.Save(filepath.Join(dir, "missing", "results.json")); err == nil {
		t.Fatal("save into missing directory succeeded")
	}
}

func TestResultsDBCamerasAndLen(t *testing.T) {
	db := NewResultsDB()
	if got := db.Cameras(); len(got) != 0 {
		t.Fatalf("Cameras on empty db = %v", got)
	}
	db.Put("b", 0, labels.NewSet("car"))
	db.Put("a", 0, labels.NewSet("car"))
	db.Put("a", 1, labels.NewSet("bus"))
	if got := db.Cameras(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Cameras = %v, want [a b]", got)
	}
	if db.Len() != 3 {
		t.Fatalf("Len = %d, want 3", db.Len())
	}
}

func TestResumeCursor(t *testing.T) {
	s := NewEdgeStore(0)
	// writeStream(t, 50, 10): 50 frames, I-frames every 10 → last I at 40.
	if err := s.Put("cam", writeStream(t, 50, 10)); err != nil {
		t.Fatal(err)
	}
	lastI, frames, err := s.ResumeCursor("cam")
	if err != nil {
		t.Fatal(err)
	}
	if lastI != 40 || frames != 50 {
		t.Fatalf("ResumeCursor = (%d, %d), want (40, 50)", lastI, frames)
	}
	if _, _, err := s.ResumeCursor("ghost"); err == nil {
		t.Fatal("unknown camera accepted")
	}
}

func TestDeltaLog(t *testing.T) {
	db := NewResultsDB()
	if v := db.Version(); v != 0 {
		t.Fatalf("fresh Version = %d", v)
	}
	db.Put("cam", 0, labels.NewSet("car"))
	db.Put("cam", 4, labels.NewSet("bus"))
	db.Put("other", 2, labels.NewSet())
	if v := db.Version(); v != 3 {
		t.Fatalf("Version = %d, want 3", v)
	}
	d, err := db.DeltaSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if d.From != 0 || d.To != 3 || len(d.Entries) != 3 {
		t.Fatalf("full delta = %+v", d)
	}
	if d.Entries[1].Camera != "cam" || d.Entries[1].Frame != 4 {
		t.Fatalf("entry order broken: %+v", d.Entries)
	}
	mid, err := db.DeltaSince(2)
	if err != nil {
		t.Fatal(err)
	}
	if mid.From != 2 || mid.To != 3 || len(mid.Entries) != 1 {
		t.Fatalf("tail delta = %+v", mid)
	}
	empty, err := db.DeltaSince(3)
	if err != nil || len(empty.Entries) != 0 {
		t.Fatalf("empty delta = (%+v, %v)", empty, err)
	}
	if _, err := db.DeltaSince(4); !errors.Is(err, ErrDeltaCursor) {
		t.Fatalf("out-of-range DeltaSince = %v", err)
	}
	if _, err := db.DeltaSince(-1); !errors.Is(err, ErrDeltaCursor) {
		t.Fatalf("negative DeltaSince = %v", err)
	}
}

func TestApplyDeltaContiguityAndIdempotency(t *testing.T) {
	src := NewResultsDB()
	src.Put("cam", 0, labels.NewSet("car"))
	src.Put("cam", 4, labels.NewSet("bus"))

	replica := NewResultsDB()
	d1, _ := src.DeltaSince(0)
	if err := replica.ApplyDelta(d1); err != nil {
		t.Fatal(err)
	}
	if replica.Version() != 2 || replica.Len() != 2 {
		t.Fatalf("replica after apply: v=%d len=%d", replica.Version(), replica.Len())
	}
	// Duplicate retransmission is a no-op.
	if err := replica.ApplyDelta(d1); err != nil {
		t.Fatalf("duplicate apply: %v", err)
	}
	if replica.Version() != 2 {
		t.Fatalf("duplicate apply advanced cursor to %d", replica.Version())
	}
	// Overlapping retransmission applies only the unseen suffix.
	src.Put("cam", 8, labels.NewSet("car"))
	overlap, _ := src.DeltaSince(1)
	if err := replica.ApplyDelta(overlap); err != nil {
		t.Fatalf("overlap apply: %v", err)
	}
	if replica.Version() != 3 || replica.Len() != 3 {
		t.Fatalf("replica after overlap: v=%d len=%d", replica.Version(), replica.Len())
	}
	// A gap is refused.
	src.Put("cam", 12, labels.NewSet("bus"))
	src.Put("cam", 16, labels.NewSet("bus"))
	gap, _ := src.DeltaSince(4)
	if err := replica.ApplyDelta(gap); !errors.Is(err, ErrDeltaCursor) {
		t.Fatalf("gap apply = %v, want ErrDeltaCursor", err)
	}
	if replica.Version() != 3 {
		t.Fatal("refused delta still advanced the cursor")
	}
	// A malformed span/entry mismatch is refused.
	bad := Delta{From: 3, To: 5, Entries: nil}
	if err := replica.ApplyDelta(bad); !errors.Is(err, ErrDeltaCursor) {
		t.Fatalf("malformed apply = %v", err)
	}
	// Catching up from the replica's true cursor converges with the source.
	rest, _ := src.DeltaSince(replica.Version())
	if err := replica.ApplyDelta(rest); err != nil {
		t.Fatal(err)
	}
	a, _ := src.MarshalIndent()
	b, _ := replica.MarshalIndent()
	if string(a) != string(b) {
		t.Fatal("replica diverged from source after catch-up")
	}
}

func TestMergeKeepsLogDeterministic(t *testing.T) {
	build := func() *ResultsDB {
		other := NewResultsDB()
		other.Put("b", 0, labels.NewSet("car"))
		other.Put("a", 3, labels.NewSet("bus"))
		other.Put("a", 1, labels.NewSet("car"))
		db := NewResultsDB()
		if err := db.Merge(other); err != nil {
			t.Fatal(err)
		}
		return db
	}
	d1, _ := build().DeltaSince(0)
	d2, _ := build().DeltaSince(0)
	for i := range d1.Entries {
		if d1.Entries[i].Camera != d2.Entries[i].Camera || d1.Entries[i].Frame != d2.Entries[i].Frame {
			t.Fatalf("merge log order not deterministic: %+v vs %+v", d1.Entries, d2.Entries)
		}
	}
	// Sorted application: a/1, a/3, b/0.
	want := []struct {
		cam   string
		frame int
	}{{"a", 1}, {"a", 3}, {"b", 0}}
	for i, w := range want {
		if d1.Entries[i].Camera != w.cam || d1.Entries[i].Frame != w.frame {
			t.Fatalf("merge log[%d] = %s/%d, want %s/%d", i, d1.Entries[i].Camera, d1.Entries[i].Frame, w.cam, w.frame)
		}
	}
}

func TestMaxFrame(t *testing.T) {
	db := NewResultsDB()
	if got := db.MaxFrame("cam"); got != -1 {
		t.Fatalf("MaxFrame on empty = %d", got)
	}
	db.Put("cam", 4, labels.NewSet("car"))
	db.Put("cam", 12, labels.NewSet("bus"))
	db.Put("cam", 8, labels.NewSet())
	if got := db.MaxFrame("cam"); got != 12 {
		t.Fatalf("MaxFrame = %d, want 12", got)
	}
}

// TestEvictionSparesPinnedStream is the regression test for the failover
// replay hazard: a quota-pressed PutEvict while a replay holds a resume
// cursor open must evict other streams, never the pinned one.
func TestEvictionSparesPinnedStream(t *testing.T) {
	a := writeStream(t, 30, 10)
	b := writeStream(t, 30, 10)
	c := writeStream(t, 30, 10)
	s := NewEdgeStore(a.Size() + b.Size() + 10)
	if err := s.Put("cam-a", a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("cam-b", b); err != nil {
		t.Fatal(err)
	}
	// A replay opens cam-a (the older stream — first in eviction order)
	// and pins it.
	release, err := s.Pin("cam-a")
	if err != nil {
		t.Fatal(err)
	}
	evicted, err := s.PutEvict("cam-c", c)
	if err != nil {
		t.Fatal(err)
	}
	// cam-a is older but pinned; cam-b must have been chosen instead.
	if len(evicted) != 1 || evicted[0] != "cam-b" {
		t.Fatalf("evicted %v, want [cam-b]", evicted)
	}
	if _, err := s.Open("cam-a"); err != nil {
		t.Fatalf("pinned stream gone after eviction: %v", err)
	}
	// The open resume cursor stays valid.
	if lastI, frames, err := s.ResumeCursor("cam-a"); err != nil || lastI != 20 || frames != 30 {
		t.Fatalf("ResumeCursor after eviction = (%d, %d, %v)", lastI, frames, err)
	}
	// Deleting or replacing the pinned stream is refused.
	if err := s.Delete("cam-a"); !errors.Is(err, ErrPinned) {
		t.Fatalf("Delete of pinned = %v", err)
	}
	if err := s.Put("cam-a", writeStream(t, 10, 5)); !errors.Is(err, ErrPinned) {
		t.Fatalf("Put over pinned = %v", err)
	}
	// When only the pinned stream could make room, PutEvict must refuse
	// without evicting anything.
	big := writeStream(t, 200, 10)
	if _, err := s.PutEvict("cam-big", big); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota PutEvict with only pinned victims = %v", err)
	}
	if _, err := s.Open("cam-a"); err != nil {
		t.Fatal("failed PutEvict still evicted the pinned stream")
	}
	if _, err := s.Open("cam-c"); err != nil {
		t.Fatal("failed PutEvict evicted cam-c without storing anything")
	}
	release()
	// After release the stream is evictable again; release is idempotent.
	release()
	if err := s.Delete("cam-a"); err != nil {
		t.Fatalf("Delete after release: %v", err)
	}
}

func TestPutEvictOldestFirstDeterministic(t *testing.T) {
	a := writeStream(t, 30, 10)
	b := writeStream(t, 30, 10)
	c := writeStream(t, 30, 10)
	s := NewEdgeStore(2*a.Size() + 10)
	if err := s.Put("cam-a", a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("cam-b", b); err != nil {
		t.Fatal(err)
	}
	evicted, err := s.PutEvict("cam-c", c)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != "cam-a" {
		t.Fatalf("evicted %v, want oldest [cam-a]", evicted)
	}
	if cams := s.Cameras(); len(cams) != 2 || cams[0] != "cam-b" || cams[1] != "cam-c" {
		t.Fatalf("cameras after eviction: %v", cams)
	}
}

func TestResumePoint(t *testing.T) {
	s := NewEdgeStore(0)
	// 50 frames, I-frames at 0, 10, 20, 30, 40.
	if err := s.Put("cam", writeStream(t, 50, 10)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		applied int
		want    int
	}{
		{-1, 0},  // cloud has nothing: restart from the beginning
		{0, 10},  // cloud synced frame 0: next boundary is 10
		{9, 10},  // mid-GOP cursor: next boundary still 10
		{10, 20}, //
		{39, 40}, //
		{40, 40}, // cloud has every stored I-frame: continue from the last
		{99, 40}, // cursor past the stored tail: same
	}
	for _, c := range cases {
		got, err := s.ResumePoint("cam", c.applied)
		if err != nil {
			t.Fatalf("ResumePoint(applied=%d): %v", c.applied, err)
		}
		if got != c.want {
			t.Fatalf("ResumePoint(applied=%d) = %d, want %d", c.applied, got, c.want)
		}
	}
	if _, err := s.ResumePoint("ghost", 0); err == nil {
		t.Fatal("ResumePoint on missing camera succeeded")
	}
}
