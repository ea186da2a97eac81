package sieve

import (
	"context"
	"runtime"
	"testing"

	"sieve/internal/synth"
)

// perFrameSlack is what a sinkless session may allocate per frame beyond
// twice its payload: the index record, the session's setup amortised over
// the shortest leg, and room for the runtime's own allocations.
const perFrameSlack = 2 << 10

// TestSessionAllocIsLinearInPayload runs a sinkless Session — the stream
// kept in its internal container.Buffer — for 100, 1 000 and 10 000 frames
// at 64×48 and reads runtime.MemStats.TotalAlloc over NewSession and Run: a
// frame must cost at most twice its payload plus perFrameSlack, and the
// per-frame reading must not grow with the stream (10 000 frames within
// 1.5× of 100). This is the class of bug an AllocsPerRun pin on the encoder
// cannot see: a buffer that copies the whole stream on every frame makes
// allocation quadratic in length while every per-call micro-pin reads 0.
// The 10 000-frame leg is skipped under -short.
func TestSessionAllocIsLinearInPayload(t *testing.T) {
	lengths := []int{100, 1000, 10000}
	if testing.Short() {
		lengths = lengths[:2]
	}
	var shortest float64
	for _, frames := range lengths {
		v, err := synth.New(synth.Spec{
			Name: "longrun", Width: 64, Height: 48, FPS: 25, NumFrames: frames,
			NoiseAmp: 2, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sess, err := NewSession(NewSynthSource(v), WithClock(testClock()))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range sess.Events() {
			}
		}()
		if err := sess.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		<-done
		runtime.ReadMemStats(&after)
		st := sess.Stats()
		if st.Frames != frames {
			t.Fatalf("session encoded %d frames, want %d", st.Frames, frames)
		}
		perFrame := float64(after.TotalAlloc-before.TotalAlloc) / float64(frames)
		payload := float64(st.PayloadBytes) / float64(frames)
		t.Logf("%5d frames: %.0f B allocated per frame, %.0f B payload per frame", frames, perFrame, payload)
		if perFrame > 2*payload+perFrameSlack {
			t.Fatalf("%d frames: %.0f B allocated per frame for %.0f B of payload; want <= 2x payload + %d",
				frames, perFrame, payload, perFrameSlack)
		}
		if shortest == 0 {
			shortest = perFrame
		} else if perFrame > 1.5*shortest {
			t.Fatalf("%d frames: %.0f B allocated per frame, %.2fx the %d-frame reading; want <= 1.5x",
				frames, perFrame, perFrame/shortest, lengths[0])
		}
	}
}
