package sieve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sieve/internal/container"
	"sieve/internal/frame"
	"sieve/internal/labels"
	"sieve/internal/nn"
	"sieve/internal/synth"
)

// runBatchedHubJSON runs the acceptance fleet through one Hub sharing a
// single inference plane at the given batch size (feeds carry no detector
// of their own), collecting detections into a ResultsDB exactly like
// runFlatHubJSON does for the per-frame path.
func runBatchedHubJSON(t testing.TB, batch int) ([]byte, HubStats) {
	t.Helper()
	hub := NewHub(WithWorkers(len(clusterCameras)), WithHubInference(trainedTestDetector(t), batch))
	for _, cam := range clusterCameras {
		if _, err := hub.Add(cam.name, NewSynthSource(clusterScene(t, cam.seed, cam.enter)),
			WithClock(testClock())); err != nil {
			t.Fatal(err)
		}
	}
	db := NewResultsDB()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range hub.Events() {
			if ev.Kind == EventDetection {
				db.Put(ev.Feed, ev.Frame, ev.Labels)
			}
		}
	}()
	if err := hub.Run(context.Background()); err != nil {
		t.Fatalf("batched hub run: %v", err)
	}
	<-done
	path := filepath.Join(t.TempDir(), "batched.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, hub.Snapshot()
}

// TestHubBatchedInferenceEquivalence is the tentpole acceptance pin: a Hub
// run with BatchSize=4 over the four-camera fleet produces a ResultsDB
// JSON byte-identical to the per-frame (batch-of-1) path, across repeated
// runs — micro-batching changes where the forward passes happen, never
// what any feed's frames are labelled.
func TestHubBatchedInferenceEquivalence(t *testing.T) {
	perFrame := runFlatHubJSON(t)
	a, stA := runBatchedHubJSON(t, 4)
	b, _ := runBatchedHubJSON(t, 4)
	if string(a) != string(b) {
		t.Fatalf("batched hub runs differ between identical invocations:\n%s\nvs\n%s", a, b)
	}
	if string(a) != string(perFrame) {
		t.Fatalf("batched ResultsDB differs from per-frame path:\nbatched:\n%s\nper-frame:\n%s", a, perFrame)
	}
	// Batch-of-2 must land on the same bytes too: results are independent
	// of how submissions happened to be grouped.
	c, _ := runBatchedHubJSON(t, 2)
	if string(c) != string(perFrame) {
		t.Fatalf("batch-2 ResultsDB differs from per-frame path")
	}

	// Amortisation accounting: every detection went through the shared
	// plane, batches never exceeded the flush size, and the run was
	// non-trivial.
	if stA.Detections == 0 {
		t.Fatal("no detections — equivalence test exercised nothing")
	}
	inf := stA.Inference
	if inf.Frames != int64(stA.Detections) {
		t.Fatalf("plane inferred %d frames, hub counted %d detections", inf.Frames, stA.Detections)
	}
	if inf.Batches < 1 || inf.Batches > inf.Frames {
		t.Fatalf("batches = %d with %d frames", inf.Batches, inf.Frames)
	}
	// With four workers and four feeds sharing the plane, Hub.Run reserves
	// all four registrations before the pool starts, so the fleet's frame-0
	// I-frames must coalesce into one full batch — deterministically, not
	// just when scheduling happens to align.
	if inf.MaxBatch != 4 {
		t.Fatalf("max batch %d, want a full batch of 4 (cold-start reservation)", inf.MaxBatch)
	}
	if got := inf.MeanBatch(); got < 1 {
		t.Fatalf("mean batch %v < 1", got)
	}
}

// TestClusterBatchedInferenceEquivalence extends the pin across the
// multi-site plane: per-site batch-4 planes (WithClusterInference) merge
// to the same global ResultsDB bytes as per-feed detectors.
func TestClusterBatchedInferenceEquivalence(t *testing.T) {
	baseline, _ := runClusterJSON(t)

	run := func() ([]byte, ClusterStats) {
		c, err := NewCluster(3,
			WithSharder(ShardRoundRobin()), WithSiteWorkers(2),
			WithClusterInference(trainedTestDetector(t), 4))
		if err != nil {
			t.Fatal(err)
		}
		for _, cam := range clusterCameras {
			if _, _, err := c.AddFeed(cam.name, NewSynthSource(clusterScene(t, cam.seed, cam.enter)),
				WithClock(testClock())); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range c.Events() {
			}
		}()
		if err := c.Run(context.Background()); err != nil {
			t.Fatalf("batched cluster run: %v", err)
		}
		<-done
		merged, err := c.Merged()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "merged.json")
		if err := merged.Save(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data, c.Snapshot()
	}

	got, st := run()
	if string(got) != string(baseline) {
		t.Fatalf("batched cluster merged DB differs from per-feed detectors:\nbatched:\n%s\nbaseline:\n%s",
			got, baseline)
	}
	if st.Inference.Frames != int64(st.Detections) {
		t.Fatalf("site planes inferred %d frames, cluster counted %d detections",
			st.Inference.Frames, st.Detections)
	}
	if st.Inference.MaxBatch > 4 {
		t.Fatalf("max batch %d exceeds flush size", st.Inference.MaxBatch)
	}
}

// TestSessionInferenceOptionConflict pins the configuration rule: a session
// gets its detections either from its own detector or from a shared plane,
// never both.
func TestSessionInferenceOptionConflict(t *testing.T) {
	det := trainedTestDetector(t)
	src := NewSynthSource(clusterScene(t, 42, 2))
	if _, err := NewSession(src, WithDetector(det), WithInferencePlane(NewInferencePlane(det, 2))); err == nil {
		t.Fatal("WithDetector + WithInferencePlane accepted")
	}
	// Hub-level plane + per-feed detector is the same conflict, surfaced
	// by Add.
	hub := NewHub(WithHubInference(det, 2))
	if _, err := hub.Add("cam", src, WithDetector(det)); err == nil {
		t.Fatal("hub plane + per-feed WithDetector accepted")
	}
}

// TestPlaneReservationWindow pins the cold-start reservation arithmetic:
// only feeds bound to the hub's plane among the first Workers() pool slots
// count. A plane feed beyond the window (its worker may be held
// indefinitely by a long sibling) or a feed that overrode the plane must
// not be reserved for — an unconsumed reservation would hold every partial
// batch open forever.
func TestPlaneReservationWindow(t *testing.T) {
	det := trainedTestDetector(t)
	shared := NewInferencePlane(det, 4)
	other := NewInferencePlane(det, 1)
	mk := func(opt SessionOption) *hubFeed {
		sess, err := NewSession(NewSynthSource(clusterScene(t, 5, 2)), opt)
		if err != nil {
			t.Fatal(err)
		}
		return &hubFeed{sess: sess}
	}
	feeds := []*hubFeed{
		mk(WithInferencePlane(shared)),
		mk(WithInferencePlane(other)), // overrode the hub plane
		mk(WithInferencePlane(shared)),
		mk(WithInferencePlane(shared)),
	}
	for _, tc := range []struct {
		window, want int
	}{
		{0, 0},
		{1, 1}, // only feed0 starts immediately
		{2, 1}, // feed1 uses another plane
		{3, 2},
		{4, 3},
		{99, 3}, // window larger than the fleet
	} {
		if got := planeReservation(feeds, shared, tc.window); got != tc.want {
			t.Fatalf("window %d: reservation = %d, want %d", tc.window, got, tc.want)
		}
	}
}

// TestSessionDetectsWhatTheArchiveDecodes pins what the detecting session
// hands the detector — the encoder's reconstruction of each I-frame, read in
// place — to what the archive holds. Each I-frame's labels must equal the
// detector run on IFrameSeeker.DecodeIFrame of the session's own stream.
// And the detection path must leave the view alone: the stream must equal,
// byte for byte, a detector-less EncodeStream of the same source, and the
// encoder's reconstruction, taken as each frame is encoded, must equal a
// sequential decode of the archive. A write through the view moves the next
// P-frame's reference; the bytes show it only when it changes a coded
// block, the reconstructions show it wherever it lands. The 136×88
// geometry puts an overhanging block column and row in the chroma planes,
// and the detector is trained on the scene itself, so the car's I-frames
// are labelled and the others are not.
func TestSessionDetectsWhatTheArchiveDecodes(t *testing.T) {
	v, err := synth.New(synth.Spec{
		Name: "cam", Width: 136, Height: 88, FPS: 5, NumFrames: 16,
		NoiseAmp: 1,
		Objects: []synth.Object{{
			Class: synth.Car, Enter: 2, Exit: 8, Lane: 0.7, Speed: 24,
			Scale: 0.3, Color: frame.RGB{R: 200, G: 40, B: 40}, Seed: 99,
		}},
		Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	var lab []nn.LabeledFrame
	for i := 0; i < v.NumFrames(); i++ {
		lf := nn.LabeledFrame{Frame: v.Frame(i)}
		for _, b := range v.Boxes(i) {
			lf.Boxes = append(lf.Boxes, nn.ObjectBox{Class: string(b.Class), X: b.X, Y: b.Y, W: b.W, H: b.H})
		}
		lab = append(lab, lf)
	}
	det := NewDetector([]string{"car"}, 64)
	if _, err := det.Train(lab, nn.TrainConfig{Seed: 5, Epochs: 8}); err != nil {
		t.Fatal(err)
	}
	params := DefaultParams(136, 88)
	params.GOPSize = 4

	var detected, plain container.Buffer
	var sess *Session
	var recons []*Frame
	snapshot := withEventTap(func(ev Event) {
		if ev.Kind == EventFrameEncoded {
			recons = append(recons, sess.enc.recon().Clone())
		}
	})
	sess, err = NewSession(NewSynthSource(v), WithClock(testClock()), WithTunedParams(params),
		WithSink(&detected), WithDetector(det), snapshot)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]labels.Set{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sess.Events() {
			if ev.Kind == EventDetection {
				got[ev.Frame] = ev.Labels
			}
		}
	}()
	if err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
	if _, err := EncodeStream(context.Background(), NewSynthSource(v), &plain,
		WithClock(testClock()), WithTunedParams(params)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(detected.Bytes(), plain.Bytes()) {
		t.Fatal("the detecting session's stream differs from a detector-less encode of the same source")
	}

	r, err := OpenStream(&detected, detected.Size())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(r.Info())
	if err != nil {
		t.Fatal(err)
	}
	if len(recons) != r.NumFrames() {
		t.Fatalf("%d reconstructions for %d archived frames", len(recons), r.NumFrames())
	}
	for i, want := range recons {
		payload, err := r.Payload(i)
		if err != nil {
			t.Fatal(err)
		}
		img, err := dec.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !img.Equal(want) {
			t.Fatalf("frame %d: the encoder's reconstruction differs from a sequential decode of the archive", i)
		}
	}

	seeker := NewIFrameSeeker(r)
	iframes := seeker.IFrames()
	if len(got) != len(iframes) {
		t.Fatalf("%d detections for %d archived I-frames", len(got), len(iframes))
	}
	labelled := 0
	for _, m := range iframes {
		img, err := seeker.DecodeIFrame(m)
		if err != nil {
			t.Fatal(err)
		}
		want := det.FrameLabels(img)
		if !slices.Equal(got[m.Index], want) {
			t.Fatalf("I-frame %d: session labels %q, detector on the archived frame %q", m.Index, got[m.Index], want)
		}
		if len(want) > 0 {
			labelled++
		}
	}
	if labelled == 0 || labelled == len(iframes) {
		t.Fatalf("%d of %d I-frames labelled: the scene should give the detector both answers", labelled, len(iframes))
	}
}
