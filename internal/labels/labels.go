// Package labels implements the ground-truth semantics of the SiEVE
// evaluation (Section IV/V-A): per-frame object label sets, "events"
// (maximal runs of frames sharing one label set), and the three metrics the
// paper scores event detection with — per-frame accuracy under label
// propagation, filtering rate, and their harmonic mean (the paper's
// "F1-score").
package labels

import (
	"slices"
	"sort"
	"strings"
)

// Set is a canonical (sorted, deduplicated) set of object class labels
// visible in one frame. The empty set means "no label".
type Set []string

// NewSet builds a canonical Set from names (duplicates and "" removed). A
// set with no labels is always nil, so it has one form.
func NewSet(names ...string) Set {
	out := make(Set, 0, len(names))
	for _, n := range names {
		if n != "" {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return nil
	}
	sort.Strings(out)
	return slices.Compact(out)
}

// Key returns a canonical string form ("" for the empty set).
func (s Set) Key() string { return strings.Join(s, "|") }

// Equal reports whether two canonical sets are identical.
func (s Set) Equal(o Set) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Empty reports whether the set has no labels.
func (s Set) Empty() bool { return len(s) == 0 }

// Contains reports whether the set includes name.
func (s Set) Contains(name string) bool {
	i := sort.SearchStrings(s, name)
	return i < len(s) && s[i] == name
}

// Track is the per-frame ground truth of a video: Track[i] is the label set
// of frame i.
type Track []Set

// Event is a maximal run of consecutive frames [Start, End) sharing the
// same label set — the paper's unit of change ("a car entered", "the car
// left").
type Event struct {
	Start, End int
	Labels     Set
}

// Len returns the event length in frames.
func (e Event) Len() int { return e.End - e.Start }

// Events segments a track into its maximal constant-label runs.
func Events(t Track) []Event {
	if len(t) == 0 {
		return nil
	}
	out := []Event{{Start: 0, Labels: t[0]}}
	for i := 1; i < len(t); i++ {
		if !t[i].Equal(out[len(out)-1].Labels) {
			out[len(out)-1].End = i
			out = append(out, Event{Start: i, Labels: t[i]})
		}
	}
	out[len(out)-1].End = len(t)
	return out
}

// Accuracy is the fraction of frames whose propagated labels match the
// ground truth — the paper's "accuracy of per-frame object detection".
// Each sampled frame receives its true labels (the reference NN is treated
// as an oracle, as in the paper), and every following frame inherits them
// until the next sample; frames before the first sample get the empty set.
// samples must be sorted ascending; out-of-range indices are ignored.
func Accuracy(t Track, samples []int) float64 {
	if len(t) == 0 {
		return 1
	}
	cur := Set(nil)
	si, correct := 0, 0
	for i := range t {
		for si < len(samples) && samples[si] <= i {
			if samples[si] == i {
				cur = t[i]
			}
			si++
		}
		if cur.Equal(t[i]) {
			correct++
		}
	}
	return float64(correct) / float64(len(t))
}

// SampleShare is the fraction of frames that undergo NN processing
// (the paper's "percentage of sampled frames", SS).
func SampleShare(numSamples, totalFrames int) float64 {
	if totalFrames == 0 {
		return 0
	}
	return float64(numSamples) / float64(totalFrames)
}

// FilteringRate is the fraction of frames *not* sampled (the paper's fr):
// FilteringRate + SampleShare == 1.
func FilteringRate(numSamples, totalFrames int) float64 {
	if totalFrames == 0 {
		return 1
	}
	return 1 - SampleShare(numSamples, totalFrames)
}

// F1 is the harmonic mean of accuracy and filtering rate, the paper's
// configuration quality score.
func F1(acc, fr float64) float64 {
	if acc+fr == 0 {
		return 0
	}
	return 2 * acc * fr / (acc + fr)
}

// EventRecall reports the fraction of events containing at least one
// sampled frame (a complement metric: a missed event can never be labelled
// correctly, no matter how labels propagate).
func EventRecall(t Track, samples []int) float64 {
	evs := Events(t)
	if len(evs) == 0 {
		return 1
	}
	hit := 0
	si := 0
	for _, ev := range evs {
		for si < len(samples) && samples[si] < ev.Start {
			si++
		}
		if si < len(samples) && samples[si] < ev.End {
			hit++
		}
	}
	return float64(hit) / float64(len(evs))
}

// EventStarts returns the first frame index of every event — the paper's
// definition of a perfect event detector's output.
func EventStarts(t Track) []int {
	evs := Events(t)
	out := make([]int, len(evs))
	for i, ev := range evs {
		out[i] = ev.Start
	}
	return out
}
