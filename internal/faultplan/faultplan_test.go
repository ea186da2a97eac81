package faultplan

import (
	"math"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	script := "crash:site1:cam-north@5;recover:site1:cam-north@9;linkdown:site2:cam-east@3;linkup:site2:cam-east@7;degrade:site0:cam-west@2:4;skew:site1:cam-north@1:3"
	p, err := Parse(script)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 6 {
		t.Fatalf("Len = %d, want 6", p.Len())
	}
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("reparse of %q: %v", p.String(), err)
	}
	if p.String() != p2.String() {
		t.Fatalf("round trip drifted:\n %q\n %q", p.String(), p2.String())
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"",
		"explode:site1:cam0@5",        // unknown kind
		"crash:site1:cam0",            // missing trigger
		"crash:site1:cam0@x",          // bad frame
		"crash:site1:cam0@5:2",        // factor on factorless kind
		"degrade:site1:cam0@5",        // missing required factor
		"degrade:site1:cam0@5:0.5",    // factor < 1
		"skew:site1:cam0@5:abc",       // bad factor
		"crash:site1:cam0@-1",         // negative frame
		"crash:site1:cam0@5:extra:oh", // too many fields
		"degrade:site1:cam0@5:NaN",    // not a number
		"degrade:site1:cam0@5:+Inf",   // infinite
		"skew:site1:cam0@5:Inf",       // infinite
		"skew:site1:cam0@5:1e400",     // overflows to +Inf
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

// TestNewRejectsNonFiniteFactor: New is the validator Parse relies on, and
// NaN passes a plain `< 1` test.
func TestNewRejectsNonFiniteFactor(t *testing.T) {
	for _, k := range []Kind{LinkDegrade, LoadSkew} {
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			e := Event{Kind: k, Site: "site0", Trigger: Trigger{Feed: "cam0", AtFrame: 1}, Factor: f}
			if _, err := New(e); err == nil {
				t.Errorf("New accepted %s with factor %v", k, f)
			}
		}
	}
}

// FuzzParse: any script Parse accepts renders, through String, to a script
// that parses back to the same plan, event for event.
func FuzzParse(f *testing.F) {
	f.Add("crash:site1:cam-north@5;recover:site1:cam-north@9")
	f.Add("linkdown:site2:cam-east@3;linkup:site2:cam-east@7")
	f.Add("degrade:site0:cam-west@2:4; skew:site1:cam-north@1:3.5")
	f.Add("degrade:a:b@1:NaN")
	f.Add("skew:s:f@+0:0x1p3;crash: s :f g@007")
	f.Fuzz(func(t *testing.T, script string) {
		p, err := Parse(script)
		if err != nil {
			return
		}
		p2, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its String %q is rejected: %v", script, p.String(), err)
		}
		a, b := p.Events(), p2.Events()
		if len(a) != len(b) {
			t.Fatalf("Parse(%q): %d events, re-parsed String %q: %d", script, len(a), p.String(), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("Parse(%q) event %d = %+v, re-parsed String %q gives %+v", script, i, a[i], p.String(), b[i])
			}
		}
	})
}

func TestPlanOrderingDeterministic(t *testing.T) {
	// Same events in two listing orders must produce the same plan string.
	a := Event{Kind: SiteCrash, Site: "site2", Trigger: Trigger{Feed: "cam0", AtFrame: 4}}
	b := Event{Kind: LinkDown, Site: "site1", Trigger: Trigger{Feed: "cam0", AtFrame: 4}}
	c := Event{Kind: SiteRecover, Site: "site2", Trigger: Trigger{Feed: "cam1", AtFrame: 2}}
	p1, err := New(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := New(c, b, a)
	if err != nil {
		t.Fatal(err)
	}
	if p1.String() != p2.String() {
		t.Fatalf("order-dependent plans:\n %q\n %q", p1.String(), p2.String())
	}
	// Crash sorts before LinkDown at the same trigger (Kind order).
	if !strings.HasPrefix(p1.String(), "crash:site2:cam0@4;linkdown:") {
		t.Fatalf("unexpected order: %q", p1.String())
	}
}

func TestRunnerFiresOnce(t *testing.T) {
	p, err := Parse("crash:site1:cam0@3;recover:site1:cam0@6;linkdown:site2:cam1@2")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(p)
	if ev := r.Observe("cam0", 2); len(ev) != 0 {
		t.Fatalf("fired early: %v", ev)
	}
	ev := r.Observe("cam0", 3)
	if len(ev) != 1 || ev[0].Kind != SiteCrash {
		t.Fatalf("Observe(cam0,3) = %v, want crash", ev)
	}
	// Already-fired events never refire.
	if ev := r.Observe("cam0", 4); len(ev) != 0 {
		t.Fatalf("refired: %v", ev)
	}
	// A jump past several triggers fires them all, in plan order.
	ev = r.Observe("cam0", 10)
	if len(ev) != 1 || ev[0].Kind != SiteRecover {
		t.Fatalf("Observe(cam0,10) = %v, want recover", ev)
	}
	if r.Remaining() != 1 {
		t.Fatalf("Remaining = %d, want 1 (cam1 event)", r.Remaining())
	}
	ev = r.Observe("cam1", 2)
	if len(ev) != 1 || ev[0].Kind != LinkDown {
		t.Fatalf("Observe(cam1,2) = %v, want linkdown", ev)
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d after all three fired", r.Remaining())
	}
}

func TestRunnerNilPlan(t *testing.T) {
	r := NewRunner(nil)
	if ev := r.Observe("cam0", 100); ev != nil {
		t.Fatalf("nil-plan runner fired %v", ev)
	}
	if r.Remaining() != 0 {
		t.Fatal("nil-plan runner has pending events")
	}
}

func TestZeroFrameTriggerFiresImmediately(t *testing.T) {
	p, err := Parse("linkdown:site0:cam0@0")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(p)
	if ev := r.Observe("cam0", 0); len(ev) != 1 {
		t.Fatalf("@0 trigger did not fire at frame count 0: %v", ev)
	}
}
