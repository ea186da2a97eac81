package nn

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"sieve/internal/frame"
)

func TestActivationRecordRoundTrip(t *testing.T) {
	for _, shape := range [][4]int{{1, 3, 8, 8}, {4, 16, 5, 7}, {3, 1, 1, 1}} {
		b := NewBatch(shape[0], shape[1], shape[2], shape[3])
		rng := trainRNG(uint64(shape[0]*31 + shape[1]))
		for i := range b.Data {
			b.Data[i] = float32(int64(rng.next()%2001)-1000) / 512
		}
		rec := AppendActivationRecord(nil, b)
		if got, want := int64(len(rec)), ActivationWireBytes(b.N, b.C, b.H, b.W); got != want {
			t.Fatalf("shape %v: record %d bytes, want %d", shape, got, want)
		}
		var out Batch
		if err := DecodeActivationRecord(rec, &out); err != nil {
			t.Fatalf("shape %v: decode: %v", shape, err)
		}
		if out.N != b.N || out.C != b.C || out.H != b.H || out.W != b.W {
			t.Fatalf("shape %v: decoded %dx%dx%dx%d", shape, out.N, out.C, out.H, out.W)
		}
		for i := range b.Data {
			if out.Data[i] != b.Data[i] {
				t.Fatalf("shape %v: element %d: %v != %v", shape, i, out.Data[i], b.Data[i])
			}
		}
		// Decoding into a previously-used batch reuses storage and still
		// round-trips exactly.
		out.Reshape(8, 2, 3, 3)
		if err := DecodeActivationRecord(rec, &out); err != nil {
			t.Fatal(err)
		}
		for i := range b.Data {
			if out.Data[i] != b.Data[i] {
				t.Fatalf("shape %v: reuse changed element %d", shape, i)
			}
		}
	}
}

func TestActivationRecordRejectsMalformed(t *testing.T) {
	good := AppendActivationRecord(nil, NewBatch(2, 3, 4, 4))
	var out Batch
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", good[:ActivationHeaderBytes-1]},
		{"bad magic", append([]byte("SVXX"), good[4:]...)},
		{"bad version", func() []byte { d := append([]byte(nil), good...); d[4] = 99; return d }()},
		{"truncated payload", good[:len(good)-4]},
		{"trailing bytes", append(append([]byte(nil), good...), 0)},
		{"zero channel", func() []byte {
			d := append([]byte(nil), good...)
			d[12], d[13], d[14], d[15] = 0, 0, 0, 0
			return d
		}()},
	}
	for _, tc := range cases {
		if err := DecodeActivationRecord(tc.data, &out); err == nil {
			t.Fatalf("%s: decode accepted a malformed record", tc.name)
		}
	}
	if err := DecodeActivationRecord(good, &out); err != nil {
		t.Fatalf("control decode failed: %v", err)
	}
}

// FuzzDecodeActivationRecord feeds DecodeActivationRecord arbitrary bytes —
// the SVAR record is what the cloud half of a split forward reads off the
// uplink. It must never panic; it must never size the batch beyond the
// elements the payload actually carries (a header is 16 bytes of
// attacker-chosen dimensions); a rejected record must leave the destination
// batch alone; and an accepted one must re-encode to the same shape and
// payload bytes.
func FuzzDecodeActivationRecord(f *testing.F) {
	good := AppendActivationRecord(nil, NewBatch(2, 3, 2, 2))
	f.Add(good)
	f.Add(good[:ActivationHeaderBytes])
	f.Add(AppendActivationRecord(nil, NewBatch(0, 1, 1, 1)))
	// Dimensions whose product wraps to 0 in 64 bits, with no payload.
	f.Add(append([]byte("SVAR\x01\x00\x00\x00"), 0x80, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 1))
	f.Add(append([]byte("SVAR\x01\x00\x00\x00"), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var out Batch
		out.Reshape(1, 1, 1, 2)
		out.Data[0], out.Data[1] = 42, 43
		if err := DecodeActivationRecord(data, &out); err != nil {
			if out.N != 1 || out.W != 2 || len(out.Data) != 2 || out.Data[0] != 42 || out.Data[1] != 43 {
				t.Fatalf("rejected record (%v) changed the destination batch: %+v", err, out)
			}
			return
		}
		// No dimension of a non-empty batch can exceed its element count;
		// checked first so the product below cannot wrap.
		held := (len(data) - ActivationHeaderBytes) / 4
		if out.N > 0 && max(out.N, out.C, out.H, out.W) > held ||
			out.N*out.C*out.H*out.W != held || len(out.Data) != held {
			t.Fatalf("accepted %d bytes as %dx%dx%dx%d with %d elements", len(data), out.N, out.C, out.H, out.W, len(out.Data))
		}
		if cap(out.Data) > max(2, len(data)/4) {
			t.Fatalf("decoding %d bytes grew the batch to %d elements", len(data), cap(out.Data))
		}
		again := AppendActivationRecord(nil, &out)
		if !bytes.Equal(again[8:], data[8:]) {
			t.Fatal("accepted record does not re-encode to the same shape and payload")
		}
	})
}

// TestSplitForwardEquivalenceFuzz is the satellite k-sweep: over seeds ×
// input sizes, the split detect path at EVERY cut k — edge [0,k), encode,
// ship through an in-memory uplink, decode, cloud [k,N) — must be
// element-identical to the full ForwardBatch path, detections and labels
// alike.
func TestSplitForwardEquivalenceFuzz(t *testing.T) {
	sizes := []int{32, 48, 96}
	seeds := []uint64{1, 2, 3, 4}
	if testing.Short() {
		sizes, seeds = sizes[:2], seeds[:2]
	}
	for _, size := range sizes {
		for _, seed := range seeds {
			d := randomHeadDetector([]string{"car", "bus", "person"}, size, seed)
			frames := make([]*frame.YUV, 5)
			for i := range frames {
				frames[i] = noiseFrame(160, 120, seed*1000+uint64(i))
			}
			ref := NewInference(d)
			var wantDets [][]Detection
			wantDets = ref.DetectBatch(frames, wantDets)
			wantLabels := ref.FrameLabelsBatch(frames, nil)

			nLayers := len(d.Network().Layers)
			var shipped int64
			ship := func(rec []byte) error { shipped = int64(len(rec)); return nil }
			for k := 0; k <= nLayers; k++ {
				shipped = 0
				ic := NewInference(d)
				var dets [][]Detection
				var info SplitInfo
				dets, info = ic.DetectBatchSplit(frames, dets, k, ship)
				if info.Fallback {
					t.Fatalf("size %d seed %d cut %d: unexpected fallback", size, seed, k)
				}
				if k < nLayers {
					if info.Cut != k || info.ActivationBytes == 0 || info.ActivationBytes != shipped {
						t.Fatalf("size %d seed %d cut %d: info %+v, shipped %d", size, seed, k, info, shipped)
					}
				} else if info.Cut != nLayers || info.ActivationBytes != 0 || shipped != 0 {
					t.Fatalf("size %d seed %d cut %d: all-edge info %+v, shipped %d", size, seed, k, info, shipped)
				}
				for i := range frames {
					if len(dets[i]) != len(wantDets[i]) {
						t.Fatalf("size %d seed %d cut %d frame %d: %d detections != %d",
							size, seed, k, i, len(dets[i]), len(wantDets[i]))
					}
					for j := range wantDets[i] {
						if dets[i][j] != wantDets[i][j] {
							t.Fatalf("size %d seed %d cut %d frame %d det %d: %+v != %+v",
								size, seed, k, i, j, dets[i][j], wantDets[i][j])
						}
					}
				}
				labelSets, _ := NewInference(d).FrameLabelsBatchSplit(frames, nil, k, ship)
				for i := range frames {
					if !labelSets[i].Equal(wantLabels[i]) {
						t.Fatalf("size %d seed %d cut %d frame %d: labels %v != %v",
							size, seed, k, i, labelSets[i], wantLabels[i])
					}
				}
			}
		}
	}
}

// TestDetectBatchSplitFallback pins the link-fault path: when ship refuses
// the activation, the batch recomputes entirely on the edge and the results
// are still element-identical — a partitioned uplink costs time, never
// correctness.
func TestDetectBatchSplitFallback(t *testing.T) {
	d := randomHeadDetector([]string{"car", "bus"}, 48, 21)
	frames := make([]*frame.YUV, 4)
	for i := range frames {
		frames[i] = noiseFrame(96, 72, uint64(70+i))
	}
	ic := NewInference(d)
	var want [][]Detection
	want = ic.DetectBatch(frames, want)

	down := errors.New("link down")
	split := NewInference(d)
	var dets [][]Detection
	dets, info := split.DetectBatchSplit(frames, dets, 3, func([]byte) error { return down })
	if !info.Fallback || info.Cut != len(d.Network().Layers) || info.ActivationBytes != 0 {
		t.Fatalf("fallback info %+v", info)
	}
	for i := range frames {
		if len(dets[i]) != len(want[i]) {
			t.Fatalf("frame %d: %d detections != %d", i, len(dets[i]), len(want[i]))
		}
		for j := range want[i] {
			if dets[i][j] != want[i][j] {
				t.Fatalf("frame %d det %d: %+v != %+v", i, j, dets[i][j], want[i][j])
			}
		}
	}
	// The same context keeps working once the link heals.
	dets, info = split.DetectBatchSplit(frames, dets, 3, func([]byte) error { return nil })
	if info.Fallback || info.Cut != 3 {
		t.Fatalf("healed info %+v", info)
	}
	for i := range frames {
		for j := range want[i] {
			if dets[i][j] != want[i][j] {
				t.Fatalf("healed frame %d det %d diverged", i, j)
			}
		}
	}
}

// TestDetectBatchSplitSteadyStateZeroAlloc pins the split path's
// allocation contract, exactly like the all-edge DetectBatch pin: once the
// input batch, ping-pong scratch, activation record buffer and cloud-side
// input reach capacity, a split round trip allocates nothing.
func TestDetectBatchSplitSteadyStateZeroAlloc(t *testing.T) {
	d := randomHeadDetector([]string{"car", "bus"}, 32, 9)
	frames := make([]*frame.YUV, 4)
	for i := range frames {
		frames[i] = noiseFrame(64, 48, uint64(40+i))
	}
	ic := NewInference(d)
	ship := func(rec []byte) error { return nil }
	var dets [][]Detection
	cut := len(d.Network().Layers) / 2
	for i := 0; i < 3; i++ {
		dets, _ = ic.DetectBatchSplit(frames, dets, cut, ship)
	}
	allocs := testing.AllocsPerRun(20, func() {
		dets, _ = ic.DetectBatchSplit(frames, dets, cut, ship)
	})
	if allocs != 0 {
		t.Fatalf("steady-state DetectBatchSplit: %.1f allocs/op, want 0", allocs)
	}
}

// TestEvalCutEdgeCases pins the latency model's boundary behaviour: the
// all-cloud cut ships the input, the all-edge cut pays no return transfer,
// zero bandwidth disables both link terms, and zero FLOPS rates disable the
// compute terms (a tier whose rate is unknown contributes no modelled time).
func TestEvalCutEdgeCases(t *testing.T) {
	d := NewYOLite([]string{"car"}, 64)
	net := d.Network()
	stats := net.Stats()
	last := len(stats) - 1
	env := Env{EdgeFLOPS: 1e9, CloudFLOPS: 2e9, BandwidthBps: 30e6, InputBytes: 12_288, ReturnBytes: 64}

	allCloud := EvalCut(net, -1, env)
	if allCloud.TransferBytes != env.InputBytes {
		t.Fatalf("cut -1 ships %d bytes, want InputBytes %d", allCloud.TransferBytes, env.InputBytes)
	}
	if allCloud.EdgeTime != 0 || allCloud.CloudTime == 0 {
		t.Fatalf("cut -1 times: edge %v cloud %v", allCloud.EdgeTime, allCloud.CloudTime)
	}
	if allCloud.ReturnBytes != env.ReturnBytes || allCloud.ReturnTime == 0 {
		t.Fatalf("cut -1 return: %d bytes in %v", allCloud.ReturnBytes, allCloud.ReturnTime)
	}

	allEdge := EvalCut(net, last, env)
	if allEdge.CloudTime != 0 || allEdge.EdgeTime == 0 {
		t.Fatalf("all-edge times: edge %v cloud %v", allEdge.EdgeTime, allEdge.CloudTime)
	}
	if allEdge.ReturnBytes != 0 || allEdge.ReturnTime != 0 {
		t.Fatalf("all-edge cut must not pay the detections' return trip: %+v", allEdge)
	}
	if allEdge.TransferBytes != stats[last].OutBytes {
		t.Fatalf("all-edge ships %d, want final output %d", allEdge.TransferBytes, stats[last].OutBytes)
	}

	noLink := EvalCut(net, 2, Env{EdgeFLOPS: 1e9, CloudFLOPS: 1e9, InputBytes: 1, ReturnBytes: 64})
	if noLink.TransferTime != 0 || noLink.ReturnTime != 0 {
		t.Fatalf("zero bandwidth must zero the link terms: %+v", noLink)
	}
	if noLink.Latency != noLink.EdgeTime+noLink.CloudTime {
		t.Fatalf("zero-bandwidth latency %v != compute %v", noLink.Latency, noLink.EdgeTime+noLink.CloudTime)
	}

	noRates := EvalCut(net, 2, Env{BandwidthBps: 10e6, InputBytes: 1})
	if noRates.EdgeTime != 0 || noRates.CloudTime != 0 {
		t.Fatalf("zero FLOPS rates must zero the compute terms: %+v", noRates)
	}
	if noRates.Latency != noRates.TransferTime+noRates.ReturnTime {
		t.Fatalf("rate-free latency %v, want pure link time", noRates.Latency)
	}
}

// TestPartitionReturnBytesAndTieBreak is the satellite table test: the
// return transfer is charged to exactly the cuts that use the cloud, and
// equal-latency ties resolve toward the smaller TransferBytes regardless of
// evaluation order.
func TestPartitionReturnBytesAndTieBreak(t *testing.T) {
	// A hand-built profile where compute is free (rates unset ⇒ modelled 0)
	// so latency is purely link time and ties are easy to construct:
	// cut 0 and cut 1 ship the same 1000 bytes; cut 2 (all-edge) ships
	// 2000. With ReturnBytes = 0 cuts 0 and 1 tie exactly.
	stats := []LayerStats{
		{Index: 0, Name: "a", OutBytes: 1000},
		{Index: 1, Name: "b", OutBytes: 1000},
		{Index: 2, Name: "c", OutBytes: 2000},
	}
	env := Env{BandwidthBps: 8e6, InputBytes: 4000}

	cases := []struct {
		name        string
		env         Env
		wantCut     int
		wantBytes   int64
		wantLatency time.Duration
	}{
		{
			// Ties at 1000 bytes (cuts 0 and 1): both beat all-cloud (4000)
			// and all-edge (2000). The tie-break keeps the first minimal cut.
			name: "equal transfer ties pick deterministic cut", env: env,
			wantCut: 0, wantBytes: 1000, wantLatency: 1 * time.Millisecond,
		},
		{
			// A return transfer penalises every cloud-using cut equally, so
			// all-edge (2000 bytes, no return) wins once ReturnBytes makes
			// the 1000-byte cuts cost more: 1000 + 1500 > 2000.
			name:    "return bytes steer the cut to the edge",
			env:     Env{BandwidthBps: 8e6, InputBytes: 4000, ReturnBytes: 1500},
			wantCut: 2, wantBytes: 2000, wantLatency: 2 * time.Millisecond,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := PartitionStats(stats, tc.env)
			if p.SplitAfter != tc.wantCut || p.TransferBytes != tc.wantBytes {
				t.Fatalf("cut %d ships %d bytes, want cut %d shipping %d",
					p.SplitAfter, p.TransferBytes, tc.wantCut, tc.wantBytes)
			}
			if p.Latency != tc.wantLatency {
				t.Fatalf("latency %v, want %v", p.Latency, tc.wantLatency)
			}
		})
	}

	// The return term shows up in the arithmetic of a single cut too.
	withReturn := EvalCutStats(stats, 0, Env{BandwidthBps: 8e6, ReturnBytes: 1000})
	if withReturn.ReturnBytes != 1000 || withReturn.ReturnTime != 1*time.Millisecond {
		t.Fatalf("return transfer not modelled: %+v", withReturn)
	}
	if withReturn.Latency != withReturn.TransferTime+withReturn.ReturnTime {
		t.Fatalf("latency %v must include the return trip", withReturn.Latency)
	}
}

// TestPartitionStatsMatchesPartition pins the allocation-free variant to
// the canonical one.
func TestPartitionStatsMatchesPartition(t *testing.T) {
	d := NewYOLite([]string{"car", "bus"}, 96)
	net := d.Network()
	stats := net.Stats()
	for _, bps := range []float64{1e6, 30e6, 1e9} {
		env := Env{EdgeFLOPS: 1e9, CloudFLOPS: 3e9, BandwidthBps: bps, InputBytes: 110_592, ReturnBytes: 64}
		if a, b := Partition(net, env), PartitionStats(stats, env); a != b {
			t.Fatalf("bps %v: Partition %+v != PartitionStats %+v", bps, a, b)
		}
	}
}
