package labels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func track(keys ...string) Track {
	t := make(Track, len(keys))
	for i, k := range keys {
		if k == "" {
			t[i] = nil
			continue
		}
		t[i] = NewSet(k)
	}
	return t
}

func TestNewSetCanonical(t *testing.T) {
	s := NewSet("car", "bus", "car", "")
	if s.Key() != "bus|car" {
		t.Fatalf("Key = %q, want bus|car", s.Key())
	}
	if !s.Contains("car") || !s.Contains("bus") || s.Contains("truck") {
		t.Fatal("Contains misbehaves")
	}
	if NewSet() != nil || NewSet("", "") != nil {
		t.Fatal("an empty set is not nil, so it has two forms")
	}
	if !NewSet("a", "b").Equal(NewSet("b", "a")) {
		t.Fatal("order-insensitive equality failed")
	}
	if NewSet("a").Equal(NewSet("a", "b")) {
		t.Fatal("different sizes equal")
	}
}

func TestEventsSegmentation(t *testing.T) {
	tr := track("", "", "car", "car", "car", "", "bus", "bus")
	evs := Events(tr)
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	wantStarts := []int{0, 2, 5, 6}
	wantEnds := []int{2, 5, 6, 8}
	for i, ev := range evs {
		if ev.Start != wantStarts[i] || ev.End != wantEnds[i] {
			t.Errorf("event %d = [%d,%d), want [%d,%d)", i, ev.Start, ev.End, wantStarts[i], wantEnds[i])
		}
	}
	if evs[1].Labels.Key() != "car" || evs[3].Labels.Key() != "bus" {
		t.Error("event labels wrong")
	}
	if Events(nil) != nil {
		t.Error("empty track should have no events")
	}
}

func TestAccuracyPerfectAtEventStarts(t *testing.T) {
	tr := track("", "", "car", "car", "", "bus", "bus", "bus", "", "")
	if acc := Accuracy(tr, EventStarts(tr)); acc != 1 {
		t.Fatalf("accuracy at event starts = %v, want 1", acc)
	}
}

func TestAccuracyAllFramesSampled(t *testing.T) {
	tr := track("", "car", "bus", "", "car")
	all := make([]int, len(tr))
	for i := range all {
		all[i] = i
	}
	if acc := Accuracy(tr, all); acc != 1 {
		t.Fatalf("accuracy with all samples = %v", acc)
	}
}

func TestAccuracyMidEventSample(t *testing.T) {
	// Event "car" spans [2,6) of 10 frames; sampling at 4 misses frames 2-3.
	tr := track("", "", "car", "car", "car", "car", "", "", "", "")
	acc := Accuracy(tr, []int{0, 4})
	// Frames 0-1 correct (empty), 2-3 wrong, 4-5 correct, 6-9 WRONG ("car"
	// propagates into the empty event). 6 correct out of 10... wait: frames
	// 6-9 inherit "car" from sample 4 — incorrect. So correct = 0,1,4,5 = 4.
	if math.Abs(acc-0.4) > 1e-9 {
		t.Fatalf("accuracy = %v, want 0.4", acc)
	}
	// Adding a sample at the empty event start fixes 6-9.
	acc = Accuracy(tr, []int{0, 4, 6})
	if math.Abs(acc-0.8) > 1e-9 {
		t.Fatalf("accuracy = %v, want 0.8", acc)
	}
	// With no samples every frame propagates the empty set.
	if acc = Accuracy(tr, nil); math.Abs(acc-0.6) > 1e-9 {
		t.Fatalf("accuracy with no samples = %v, want 0.6", acc)
	}
	// Frames before the first sample are empty; out-of-range samples are
	// ignored.
	if acc = Accuracy(track("", "car", "car", "", ""), []int{1, 3, 9}); acc != 1 {
		t.Fatalf("accuracy = %v, want 1", acc)
	}
}

func TestRatesIdentity(t *testing.T) {
	if got := SampleShare(5, 200); got != 0.025 {
		t.Fatalf("SampleShare = %v", got)
	}
	f := func(n uint8, total uint16) bool {
		tt := int(total)
		nn := int(n)
		if tt == 0 {
			return FilteringRate(nn, tt) == 1 && SampleShare(nn, tt) == 0
		}
		return math.Abs(FilteringRate(nn, tt)+SampleShare(nn, tt)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestF1(t *testing.T) {
	if F1(0, 0) != 0 {
		t.Fatal("F1(0,0) should be 0")
	}
	if F1(1, 1) != 1 {
		t.Fatal("F1(1,1) should be 1")
	}
	got := F1(0.8, 0.4)
	want := 2 * 0.8 * 0.4 / 1.2
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("F1 = %v, want %v", got, want)
	}
	// Symmetry.
	if F1(0.3, 0.9) != F1(0.9, 0.3) {
		t.Fatal("F1 not symmetric")
	}
}

func TestEventRecall(t *testing.T) {
	tr := track("", "", "car", "car", "", "")
	if r := EventRecall(tr, []int{0, 2, 4}); r != 1 {
		t.Fatalf("recall = %v, want 1", r)
	}
	if r := EventRecall(tr, []int{0}); math.Abs(r-1.0/3) > 1e-9 {
		t.Fatalf("recall = %v, want 1/3", r)
	}
	if r := EventRecall(nil, nil); r != 1 {
		t.Fatalf("recall of empty track = %v", r)
	}
}

func TestEventsPartitionProperty(t *testing.T) {
	// Events must partition [0, len) exactly, with adjacent events differing.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		classes := []string{"", "car", "bus", "person"}
		tr := make(Track, int(n))
		for i := range tr {
			c := classes[rng.Intn(len(classes))]
			if c == "" {
				tr[i] = nil
			} else {
				tr[i] = NewSet(c)
			}
		}
		evs := Events(tr)
		if len(tr) == 0 {
			return evs == nil
		}
		pos := 0
		for i, ev := range evs {
			if ev.Start != pos || ev.End <= ev.Start {
				return false
			}
			if i > 0 && ev.Labels.Equal(evs[i-1].Labels) {
				return false
			}
			pos = ev.End
		}
		return pos == len(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAccuracySupersetOfEventStartsIsPerfect(t *testing.T) {
	// Any sample set containing every event start scores accuracy 1
	// (extra mid-event samples re-read the same oracle labels).
	// Note accuracy is NOT monotone in prefixes of the event-start list:
	// sampling a new event start can invalidate a later stretch that was
	// correct only by stale-label coincidence.
	f := func(seed int64, n uint8, extras []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		classes := []string{"", "car", "bus"}
		tr := make(Track, int(n))
		cur := ""
		for i := range tr {
			if rng.Intn(10) == 0 {
				cur = classes[rng.Intn(len(classes))]
			}
			if cur == "" {
				tr[i] = nil
			} else {
				tr[i] = NewSet(cur)
			}
		}
		if len(tr) == 0 {
			return Accuracy(tr, nil) == 1
		}
		samples := EventStarts(tr)
		for _, e := range extras {
			samples = append(samples, int(e)%len(tr))
		}
		sortInts(samples)
		return Accuracy(tr, samples) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
