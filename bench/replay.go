package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"sieve"
	"sieve/internal/bitstream"
	"sieve/internal/cluster"
	"sieve/internal/codec"
	"sieve/internal/container"
	"sieve/internal/frame"
	"sieve/internal/labels"
	"sieve/internal/nn"
	"sieve/internal/store"
	"sieve/internal/transform"
	"sieve/internal/wire"
)

// span is one timed call into a layer's public function, recorded from
// outside the layer. Parent indexes the span that caused it (-1 = root).
type span struct {
	Layer   string `json:"layer"`
	Call    string `json:"call"`
	Frame   int    `json:"frame"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// recorder keeps spans in memory until the benchmark ends. A nil recorder
// records nothing, so the replay doubles as the untimed reference
// computation of the correctness gate.
type recorder struct {
	watch *stopwatch
	// mu lets the two scanners of a traced archive pass share a recorder;
	// the replay is single-goroutine and never contends.
	mu     sync.Mutex
	spans  []span
	parent int
}

func newRecorder() *recorder {
	return &recorder{watch: newStopwatch(), spans: make([]span, 0, 1<<14), parent: -1}
}

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return r.watch.now()
}

// allocated is the bytes the process has allocated so far, read without
// stopping the world (a stop between two frames costs the next encode a few
// percent). A large allocation counts at once and a small one when its span
// is retired, so a delta around one call can be a few KB off; over a feed
// that is nothing against what the writer allocates.
func (r *recorder) allocated() uint64 {
	if r == nil {
		return 0
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// add records a finished span under the current parent and returns its index.
func (r *recorder) add(layer, call string, frame int, start, end int64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Layer: layer, Call: call, Frame: frame, StartNs: start, EndNs: end, Parent: r.parent})
	return len(r.spans) - 1
}

// open starts a parent span; close ends it and restores the outer parent.
func (r *recorder) open(layer, call string, frame int) (idx, outer int) {
	if r == nil {
		return -1, -1
	}
	outer = r.parent
	idx = r.add(layer, call, frame, r.watch.now(), 0)
	r.parent = idx
	return idx, outer
}

func (r *recorder) close(idx, outer int) {
	if r == nil {
		return
	}
	r.spans[idx].EndNs = r.watch.now()
	r.parent = outer
}

// callStats sums the spans of one (layer, call).
type callStats struct {
	n     int
	total int64
	each  []float64
}

func (r *recorder) stats(layer, call string) callStats {
	var cs callStats
	if r == nil {
		return cs
	}
	for _, s := range r.spans {
		if s.Layer == layer && s.Call == call {
			cs.n++
			cs.total += s.EndNs - s.StartNs
			cs.each = append(cs.each, float64(s.EndNs-s.StartNs))
		}
	}
	return cs
}

func (cs callStats) mean() float64 {
	if cs.n == 0 {
		return 0
	}
	return float64(cs.total) / float64(cs.n)
}

// putMean records the mean duration of one (layer, call)'s spans.
func (m *metricSet) putMean(name string, rec *recorder, layer, call string) {
	cs := rec.stats(layer, call)
	m.put(name, cs.mean(), cs.n)
}

// digest fingerprints a stream: header, every index record, every payload.
// Two streams with equal digests are byte-identical SVF files.
func digest(r *container.Reader) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%d|", r.Info(), r.NumFrames())
	var rec [8]byte
	for i := 0; i < r.NumFrames(); i++ {
		m := r.Meta(i)
		fmt.Fprintf(h, "%+v|", m)
		p, err := r.Payload(i)
		if err != nil {
			fmt.Fprintf(h, "payload error %v|", err)
			continue
		}
		binary.BigEndian.PutUint64(rec[:], uint64(len(p)))
		h.Write(rec[:])
		h.Write(p)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// differingStreams names, in order, the streams of want that got lacks or
// holds with another digest.
func differingStreams(got, want map[string][32]byte) []string {
	var names []string
	for name, d := range want {
		if g, ok := got[name]; !ok || g != d {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func bufferDigest(b *container.Buffer) ([32]byte, error) {
	r, err := container.NewReader(b, b.Size())
	if err != nil {
		return [32]byte{}, err
	}
	return digest(r), nil
}

// replayFeed is one camera of a replay.
type replayFeed struct {
	name   string
	site   string // "" when the workload has no cluster layer
	frames []*sieve.Frame
}

// replayConfig says which layers a workload's frames pass through.
type replayConfig struct {
	params sieve.EncoderParams
	fps    int
	det    *sieve.Detector
	batch  int // forward batch size (the workload's)
	split  bool
	cut    int
	// Cluster layer (sites == nil: none, detections go straight to one DB).
	sites     []string
	uplinkBps float64
	latency   time.Duration
	syncEvery int
}

// replayResult is the reference output of a workload, computed by calling
// each layer's public functions directly on one goroutine.
type replayResult struct {
	streams  map[string][32]byte
	dbJSON   []byte
	iframes  int
	frames   int
	payload  int64
	dets     int
	svarRec  int64 // activation record bytes shipped
	writeAlc uint64
}

type pendingIFrame struct {
	feed  *replayFeed
	frame int
	img   *sieve.Frame
}

// replay feeds every feed's frames through encoder, container writer,
// I-frame decoder, detector, results shard, coordinator and edge store,
// one call at a time, a span around each call. It is both the reference
// the in-situ outputs must match byte for byte and, with a recorder, the
// per-layer timing: nothing else runs, so a span's duration is its layer's
// busy time and an allocation delta around a call is that call's.
func replay(cfg replayConfig, feeds []replayFeed, rec *recorder) (*replayResult, error) {
	res := &replayResult{streams: map[string][32]byte{}}
	inf := nn.NewInference(cfg.det)

	var (
		coord  *cluster.Coordinator
		shards = map[string]*store.ResultsDB{}
		edges  = map[string]*store.EdgeStore{}
		synced = map[string]int{}
	)
	siteNames := cfg.sites
	if siteNames == nil {
		siteNames = []string{""}
	} else {
		topo, err := cluster.NewStarTopology(cfg.sites, cfg.uplinkBps, cfg.latency)
		if err != nil {
			return nil, err
		}
		coord = cluster.NewCoordinator(topo)
		for _, s := range cfg.sites {
			coord.Register(s)
		}
	}
	for _, s := range siteNames {
		shards[s] = store.NewResultsDB()
		edges[s] = store.NewEdgeStore(0)
	}

	flushDelta := func(site string) error {
		shard := shards[site]
		if coord == nil || coord.SyncCursor(site) == shard.Version() {
			return nil
		}
		t0 := rec.now()
		d, err := shard.DeltaSince(coord.SyncCursor(site))
		t1 := rec.now()
		if err != nil {
			return err
		}
		rec.add("store", "delta_since", -1, t0, t1)
		err = coord.ShipDelta(site, d)
		rec.add("cluster", "ship_delta", -1, t1, rec.now())
		return err
	}

	// Forward passes run at the workload's batch size. Grouping never
	// changes a frame's labels (the batched forward is element-identical),
	// so the replay batches I-frames in feed order.
	var (
		pending []pendingIFrame
		imgs    []*sieve.Frame
		sets    []labels.Set
	)
	shipSite := ""
	var shipStart, shipEnd int64
	ship := func(recBytes []byte) error {
		shipStart = rec.now()
		res.svarRec += int64(len(recBytes))
		var err error
		if coord != nil {
			err = coord.ShipActivation(shipSite, int64(len(recBytes)))
		}
		shipEnd = rec.now()
		return err
	}
	flushBatch := func() error {
		if len(pending) == 0 {
			return nil
		}
		imgs = imgs[:0]
		for _, p := range pending {
			imgs = append(imgs, p.img)
		}
		shipSite = pending[0].feed.site
		t0 := rec.now()
		if cfg.split {
			shipStart, shipEnd = 0, 0
			sets, _ = inf.FrameLabelsBatchSplit(imgs, sets, cfg.cut, ship)
			t1 := rec.now()
			if shipEnd != 0 {
				rec.add("nn", "split_edge", len(imgs), t0, shipStart)
				rec.add("cluster", "ship_activation", len(imgs), shipStart, shipEnd)
				rec.add("nn", "split_cloud", len(imgs), shipEnd, t1)
			} else {
				rec.add("nn", "forward", len(imgs), t0, t1)
			}
		} else {
			sets = inf.FrameLabelsBatch(imgs, sets)
			rec.add("nn", "forward", len(imgs), t0, rec.now())
		}
		for i, p := range pending {
			site := p.feed.site
			t0 := rec.now()
			shards[site].Put(p.feed.name, p.frame, sets[i])
			t1 := rec.now()
			rec.add("store", "put", p.frame, t0, t1)
			res.dets++
			if coord == nil {
				continue
			}
			if err := coord.ShipDetection(site, p.feed.name, sets[i]); err != nil {
				return err
			}
			rec.add("cluster", "ship_detection", p.frame, t1, rec.now())
			if synced[site]++; synced[site] >= cfg.syncEvery {
				synced[site] = 0
				if err := flushDelta(site); err != nil {
					return err
				}
			}
		}
		pending = pending[:0]
		return nil
	}

	for fi := range feeds {
		feed := &feeds[fi]
		feedSpan, outer := rec.open("sieve", "replay_feed", fi)
		enc, err := codec.NewEncoder(cfg.params)
		if err != nil {
			return nil, err
		}
		buf := &container.Buffer{}
		w, err := container.NewWriter(buf, container.StreamInfo{
			Width: cfg.params.Width, Height: cfg.params.Height, FPS: cfg.fps,
			Quality: enc.Params().Quality, GOPSize: cfg.params.GOPSize, Scenecut: cfg.params.Scenecut,
		})
		if err != nil {
			return nil, err
		}
		ifd, err := codec.NewIFrameDecoder(enc.Params())
		if err != nil {
			return nil, err
		}
		var ef codec.EncodedFrame
		for i, f := range feed.frames {
			t0 := rec.now()
			if err := enc.EncodeInto(f, &ef); err != nil {
				return nil, err
			}
			t1 := rec.now()
			call := "encode_p"
			if ef.Type == codec.FrameI {
				call = "encode_i"
			}
			rec.add("codec", call, i, t0, t1)

			alloc0 := rec.allocated()
			t0 = rec.now()
			if err := w.WriteEncoded(&ef); err != nil {
				return nil, err
			}
			t1 = rec.now()
			res.writeAlc += rec.allocated() - alloc0
			rec.add("container", "write", i, t0, t1)

			res.frames++
			res.payload += int64(len(ef.Data))
			if ef.Type != codec.FrameI {
				continue
			}
			res.iframes++
			t0 = rec.now()
			img, err := ifd.Decode(ef.Data)
			if err != nil {
				return nil, err
			}
			rec.add("codec", "idecode", i, t0, rec.now())
			pending = append(pending, pendingIFrame{feed: feed, frame: i, img: img.Clone()})
			// A site's plane only ever batches its own feeds, and a shipped
			// activation crosses that site's uplink.
			if len(pending) >= cfg.batch {
				if err := flushBatch(); err != nil {
					return nil, err
				}
			}
		}
		if err := flushBatch(); err != nil {
			return nil, err
		}
		alloc0 := rec.allocated()
		t0 := rec.now()
		if err := w.Close(); err != nil {
			return nil, err
		}
		t1 := rec.now()
		res.writeAlc += rec.allocated() - alloc0
		rec.add("container", "close", -1, t0, t1)

		t0 = rec.now()
		if err := edges[feed.site].Put(feed.name, buf); err != nil {
			return nil, err
		}
		rec.add("store", "edge_put", -1, t0, rec.now())
		d, err := bufferDigest(buf)
		if err != nil {
			return nil, err
		}
		res.streams[feed.name] = d
		rec.close(feedSpan, outer)
	}

	merged := shards[""]
	if coord != nil {
		for _, s := range cfg.sites {
			if err := flushDelta(s); err != nil {
				return nil, err
			}
			if err := coord.Submit(cluster.Report{Site: s, Shard: shards[s]}); err != nil {
				return nil, err
			}
		}
		t0 := rec.now()
		m, err := coord.MergeAll()
		rec.add("cluster", "merge", -1, t0, rec.now())
		if err != nil {
			return nil, err
		}
		merged = m
	}
	var err error
	if res.dbJSON, err = merged.MarshalIndent(); err != nil {
		return nil, err
	}
	return res, nil
}

// svarCodec times the activation wire record codec alone, on a record of
// the shape the workload ships (batch frames at the cut), and returns
// ns per frame.
func svarCodec(det *sieve.Detector, batch, cut int, sample []*sieve.Frame, rec *recorder) float64 {
	if len(sample) < batch {
		batch = len(sample)
	}
	if batch == 0 {
		return 0
	}
	inf := nn.NewInference(det)
	var record []byte
	inf.FrameLabelsBatchSplit(sample[:batch], nil, cut, func(b []byte) error {
		record = append(record[:0], b...)
		return nil
	})
	if record == nil {
		return 0
	}
	var act nn.Batch
	if err := nn.DecodeActivationRecord(record, &act); err != nil {
		return 0
	}
	const reps = 20
	var out []byte
	for i := 0; i < reps; i++ {
		t0 := rec.now()
		out = nn.AppendActivationRecord(out[:0], &act)
		t1 := rec.now()
		_ = nn.DecodeActivationRecord(out, &act)
		t2 := rec.now()
		rec.add("nn", "svar_encode", batch, t0, t1)
		rec.add("nn", "svar_decode", batch, t1, t2)
	}
	e, d := rec.stats("nn", "svar_encode"), rec.stats("nn", "svar_decode")
	return (median(e.each) + median(d.each)) / float64(batch)
}

// wireReplay sends frames as FRAME messages over a synchronous net.Pipe
// and reads them back into a frame, a span on each side.
func wireReplay(frames []*sieve.Frame, rec *recorder) (writeNs, readNs, bytesPerFrame float64, err error) {
	if len(frames) == 0 {
		return 0, 0, 0, nil
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	wc, rc := wire.NewConn(a), wire.NewConn(b)
	dst := frame.NewYUV(frames[0].W, frames[0].H)
	type readSpan struct{ t0, t1 int64 }
	reads := make(chan []readSpan, 1)
	readErr := make(chan error, 1)
	go func() {
		var spans []readSpan
		for range frames {
			t0 := rec.now()
			t, payload, err := rc.ReadMessage()
			if err == nil && t != wire.MsgFrame {
				err = fmt.Errorf("unexpected %s", t)
			}
			if err == nil {
				_, err = wire.DecodeFrameInto(payload, dst)
			}
			if err != nil {
				readErr <- err
				return
			}
			spans = append(spans, readSpan{t0, rec.now()})
		}
		reads <- spans
	}()
	var payload []byte
	var total int64
	for i, f := range frames {
		t0 := rec.now()
		payload = wire.AppendFramePixels(wire.AppendFrameHeader(payload[:0], int64(i)), f)
		if err := wc.WriteMessage(wire.MsgFrame, payload); err != nil {
			return 0, 0, 0, err
		}
		rec.add("wire", "write", i, t0, rec.now())
		total += int64(len(payload)) + 5
	}
	select {
	case err := <-readErr:
		return 0, 0, 0, err
	case spans := <-reads:
		for i, s := range spans {
			rec.add("wire", "read", i, s.t0, s.t1)
		}
	}
	if !dst.Equal(frames[len(frames)-1]) {
		return 0, 0, 0, fmt.Errorf("wire replay: last frame read back differs")
	}
	return median(rec.stats("wire", "write").each), median(rec.stats("wire", "read").each),
		float64(total) / float64(len(frames)), nil
}

// kernels times the inner kernels on a fixed sample of 8x8 blocks and
// 16x16 macroblocks cut from the workload's first clip frames.
type kernelTimes struct {
	fdct, idct, quant, sad16, writeUE, readUE float64
	blocksPerFrame                            float64
}

func kernels(sc *scene) kernelTimes {
	const (
		maxBlocks = 2048
		reps      = 15
	)
	a, b := sc.clip[0], sc.clip[len(sc.clip)-1]
	if len(sc.clip) > 1 {
		b = sc.clip[1]
	}
	var blocks []transform.Block
	for by := 0; by+8 <= a.Y.H && len(blocks) < maxBlocks; by += 8 {
		for bx := 0; bx+8 <= a.Y.W && len(blocks) < maxBlocks; bx += 8 {
			var blk transform.Block
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					blk[y*8+x] = int32(a.Y.At(bx+x, by+y)) - 128
				}
			}
			blocks = append(blocks, blk)
		}
	}
	coef := make([]transform.Block, len(blocks))
	lev := make([]transform.Block, len(blocks))
	out := make([]transform.Block, len(blocks))
	qz := transform.NewQuantizer(codec.Defaults(sc.width, sc.height).Quality)
	perBlock := func(fn func(i int)) float64 {
		var each []float64
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			for i := range blocks {
				fn(i)
			}
			each = append(each, float64(time.Since(t0))/float64(len(blocks)))
		}
		return median(each)
	}
	var kt kernelTimes
	kt.fdct = perBlock(func(i int) { transform.Forward(&blocks[i], &coef[i]) })
	kt.quant = perBlock(func(i int) { qz.Quantize(&coef[i], &lev[i]) })
	kt.idct = perBlock(func(i int) { transform.Inverse(&coef[i], &out[i]) })

	// SAD of each macroblock against the co-located one in the next frame,
	// the zero-motion candidate every P-frame search starts from.
	type mb struct{ x, y int }
	var mbs []mb
	for y := 0; y+16 <= a.Y.H; y += 16 {
		for x := 0; x+16 <= a.Y.W; x += 16 {
			mbs = append(mbs, mb{x, y})
		}
	}
	sink := 0
	var each []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for _, m := range mbs {
			sink += frame.SAD(a.Y, m.x, m.y, b.Y, m.x, m.y, 16, 16)
		}
		each = append(each, float64(time.Since(t0))/float64(len(mbs)))
	}
	kt.sad16 = median(each)

	// Exp-Golomb codes of the quantised levels' magnitudes.
	var vals []uint64
	for i := range lev {
		for _, v := range lev[i] {
			if v < 0 {
				v = -v
			}
			vals = append(vals, uint64(v))
		}
	}
	bw := bitstream.NewWriter(len(vals))
	var wEach, rEach []float64
	for r := 0; r < reps; r++ {
		bw.Reset()
		t0 := time.Now()
		for _, v := range vals {
			bw.WriteUE(v)
		}
		wEach = append(wEach, float64(time.Since(t0))/float64(len(vals)))
		bw.Align()
		br := bitstream.NewReader(bw.Bytes())
		t0 = time.Now()
		for range vals {
			v, _ := br.ReadUE()
			sink += int(v)
		}
		rEach = append(rEach, float64(time.Since(t0))/float64(len(vals)))
	}
	kt.writeUE, kt.readUE = median(wEach), median(rEach)
	kernelSink = sink

	// 4:2:0 over a macroblock grid that extends past the frame edge.
	mbW, mbH := (sc.width+15)/16, (sc.height+15)/16
	kt.blocksPerFrame = float64(mbW * mbH * 6)
	return kt
}

// kernelSink keeps the compiler from discarding the timed kernel calls.
var kernelSink int
