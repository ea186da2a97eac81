package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sieve"
	"sieve/internal/codec"
	"sieve/internal/container"
	"sieve/internal/frame"
	"sieve/internal/labels"
	"sieve/internal/nn"
	"sieve/internal/store"
)

// scanBatch is the forward batch of the archive scanner: nothing waits on
// a live feed here, so the largest batch the planes use is the right one.
const scanBatch = 16

// scanClasses are the classes the 1000 queries cycle through.
var scanClasses = []string{"car", "bus", "truck"}

// archive is what archive_scan's set-up leaves behind: the encoded streams
// in an edge store, and the results the encoding sessions themselves
// detected — the reference phase A must reproduce.
type archive struct {
	edge    *store.EdgeStore
	cameras []string
	frames  int
	refJSON []byte
}

// buildArchive encodes the streams with detecting Sessions, two at a time,
// into an EdgeStore.
func buildArchive(e *env) (*archive, error) {
	a := &archive{edge: store.NewEdgeStore(0), frames: e.sz.scanFrames}
	ref := store.NewResultsDB()
	params := e.sc.params(e.sz.busyGOP)
	watch := newStopwatch()

	type job struct {
		name string
		src  *clipSource
	}
	jobs := make(chan job)
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				buf := &container.Buffer{}
				sess, err := sieve.NewSession(j.src, sieve.WithName(j.name), sieve.WithTunedParams(params),
					sieve.WithDetector(e.det), sieve.WithSink(buf))
				if err != nil {
					errs <- err
					return
				}
				done := make(chan struct{})
				go func() {
					defer close(done)
					for ev := range sess.Events() {
						if ev.Kind == sieve.EventDetection {
							ref.Put(j.name, ev.Frame, ev.Labels)
						}
					}
				}()
				err = sess.Run(context.Background())
				<-done
				if err == nil {
					err = a.edge.Put(j.name, buf)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < e.sz.scanStreams; i++ {
		name := feedName(i)
		a.cameras = append(a.cameras, name)
		jobs <- job{name, newClipSource(e.sc, name, e.sc.feedOffset(i, e.sz.scanStreams), e.sz.scanFrames, watch)}
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	var err error
	a.refJSON, err = ref.MarshalIndent()
	return a, err
}

// scanPass is one phase-A pass over the whole archive.
type scanPass struct {
	cost      // frames: stream frames covered
	iframes   int
	readBytes int64
	frameLat  []float64 // ms, payload fetch -> labels stored
	answerLat []float64 // ms, stream opened -> first query over it answered
	queryNs   []float64
	late      int
	dbJSON    []byte
}

// scanner is one scanning goroutine's reusable state. Each batch slot has
// its own IFrameDecoder because a decoder's output frame is only valid
// until its next Decode.
type scanner struct {
	inf  *nn.Inference
	decs []*codec.IFrameDecoder
	imgs []*frame.YUV
	sets []labels.Set
	meta []container.FrameMeta
	t0   []int64
}

// newScanner builds a scanner and runs one full batch through its
// inference context, so its lazily grown buffers are at their final size
// before anything is timed or weighed.
func newScanner(det *sieve.Detector, sc *scene, gop int) (*scanner, error) {
	s := &scanner{inf: nn.NewInference(det)}
	for i := 0; i < scanBatch; i++ {
		d, err := codec.NewIFrameDecoder(sc.params(gop))
		if err != nil {
			return nil, err
		}
		s.decs = append(s.decs, d)
		s.imgs = append(s.imgs, sc.frameAt(i))
	}
	s.sets = s.inf.FrameLabelsBatch(s.imgs, s.sets)
	s.imgs = s.imgs[:0]
	return s, nil
}

// scanStream is the paper's headline path for one stream: seek the
// I-frames from the index, fetch and decode only them, detect in batches,
// store the labels, then answer a query. rec, when set, gets a span around
// every call into a layer.
func (s *scanner) scanStream(a *archive, cam string, db *store.ResultsDB, watch *stopwatch, rec *recorder, p *scanPass, mu *sync.Mutex) error {
	opened := watch.now()
	t0 := rec.now()
	r, err := a.edge.Open(cam)
	if err != nil {
		return err
	}
	rec.add("container", "open", -1, t0, rec.now())
	metas := sieve.NewIFrameSeeker(r).IFrames()

	var frameLat []float64
	var readBytes int64
	late := 0
	flush := func() {
		if len(s.imgs) == 0 {
			return
		}
		t0 := rec.now()
		s.sets = s.inf.FrameLabelsBatch(s.imgs, s.sets)
		rec.add("nn", "forward", len(s.imgs), t0, rec.now())
		for i, m := range s.meta {
			t0 := rec.now()
			db.Put(cam, m.Index, s.sets[i])
			rec.add("store", "put", m.Index, t0, rec.now())
			lat := watch.now() - s.t0[i]
			frameLat = append(frameLat, ms(lat))
			if lat > int64(batchDeadline) {
				late++
			}
		}
		s.imgs, s.meta, s.t0 = s.imgs[:0], s.meta[:0], s.t0[:0]
	}
	for _, m := range metas {
		fetched := watch.now()
		t0 := rec.now()
		payload, err := r.Payload(m.Index)
		if err != nil {
			return err
		}
		t1 := rec.now()
		rec.add("container", "payload", m.Index, t0, t1)
		img, err := s.decs[len(s.imgs)].Decode(payload)
		if err != nil {
			return err
		}
		rec.add("codec", "idecode", m.Index, t1, rec.now())
		readBytes += int64(len(payload))
		s.imgs, s.meta, s.t0 = append(s.imgs, img), append(s.meta, m), append(s.t0, fetched)
		if len(s.imgs) == scanBatch {
			flush()
		}
	}
	flush()
	tq := rec.now()
	db.Query(cam, scanClasses[0], 0, r.NumFrames())
	rec.add("store", "query", -1, tq, rec.now())
	answered := watch.now() - opened

	mu.Lock()
	p.frames += r.NumFrames()
	p.iframes += len(metas)
	p.readBytes += readBytes
	p.frameLat = append(p.frameLat, frameLat...)
	p.answerLat = append(p.answerLat, ms(answered))
	p.late += late
	mu.Unlock()
	return nil
}

// runScanPass is timed phase A: the given scanners share the archive's
// streams, then the query load runs against the fresh ResultsDB.
func runScanPass(e *env, scanners []*scanner, rec *recorder) (*scanPass, error) {
	a := e.archive
	p := &scanPass{}
	db := store.NewResultsDB()
	watch := newStopwatch()
	workers := len(scanners)
	liveHeap()
	p.m.begin()
	cams := make(chan string, len(a.cameras))
	for _, c := range a.cameras {
		cams <- c
	}
	close(cams)
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs = make(chan error, workers)
	)
	for _, s := range scanners {
		wg.Add(1)
		go func(s *scanner) {
			defer wg.Done()
			for cam := range cams {
				if err := s.scanStream(a, cam, db, watch, rec, p, &mu); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	p.queryNs = make([]float64, 0, e.sz.scanQueries)
	hits := 0
	for q := 0; q < e.sz.scanQueries; q++ {
		cam := a.cameras[q%len(a.cameras)]
		class := scanClasses[q%len(scanClasses)]
		from := (q * 7) % a.frames
		t0 := watch.now()
		hits += len(db.Query(cam, class, from, a.frames))
		p.queryNs = append(p.queryNs, float64(watch.now()-t0))
	}
	querySink = hits
	p.m.end()
	p.retained = retainedMB(e.heapBefore)
	var err error
	if p.dbJSON, err = db.MarshalIndent(); err != nil {
		return nil, err
	}
	runtime.KeepAlive(a)
	runtime.KeepAlive(db)
	return p, nil
}

var querySink int

// decodeAll is phase B, the paper's "decode everything" baseline: a full
// sequential decode of every frame of every stream, `workers` streams at a
// time. It also checks that each fully decoded frame at an I-frame index
// equals what the IFrameDecoder produces for it. Returns frames per
// second, frames decoded and mismatches.
func decodeAll(a *archive, workers int, rec *recorder) (fps float64, decoded, mismatches int, err error) {
	cams := make(chan string, len(a.cameras))
	for _, c := range a.cameras {
		cams <- c
	}
	close(cams)
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs = make(chan error, workers)
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cam := range cams {
				n, bad, err := decodeStream(a, cam, rec)
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				decoded += n
				mismatches += bad
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	select {
	case err := <-errs:
		return 0, 0, 0, err
	default:
	}
	return float64(decoded) / wall.Seconds(), decoded, mismatches, nil
}

func decodeStream(a *archive, cam string, rec *recorder) (decoded, mismatches int, err error) {
	r, err := a.edge.Open(cam)
	if err != nil {
		return 0, 0, err
	}
	dec, err := sieve.NewDecoder(r.Info())
	if err != nil {
		return 0, 0, err
	}
	ifd, err := codec.NewIFrameDecoder(r.Info().CodecParams())
	if err != nil {
		return 0, 0, err
	}
	out := frame.NewYUV(r.Info().Width, r.Info().Height)
	for i := 0; i < r.NumFrames(); i++ {
		payload, err := r.Payload(i)
		if err != nil {
			return 0, 0, err
		}
		t0 := rec.now()
		if err := dec.DecodeInto(payload, out); err != nil {
			return 0, 0, fmt.Errorf("%s frame %d: %w", cam, i, err)
		}
		rec.add("codec", "decode", i, t0, rec.now())
		decoded++
		if r.Meta(i).Type == codec.FrameI {
			img, err := ifd.Decode(payload)
			if err != nil || !img.Equal(out) {
				mismatches++
			}
		}
	}
	return decoded, mismatches, nil
}

// runArchive measures archive_scan. Untraced: phase-A passes with two
// scanners. Traced: plain and span-recording passes alternate, then the
// layer replay — phase A and phase B on one goroutine with spans on.
func runArchive(e *env, seconds float64, traced bool) (*reading, error) {
	a := e.archive
	if _, err := runScanPass(e, e.scanners, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var plain, withTrace []*scanPass
	err := passLoop(seconds, e.sz.passes(traced), func(i int) error {
		var rec *recorder
		if traced && i%2 == 1 {
			rec = newRecorder()
		}
		p, err := runScanPass(e, e.scanners, rec)
		if err != nil {
			return err
		}
		if rec != nil {
			withTrace = append(withTrace, p)
		} else {
			plain = append(plain, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	r := &reading{counts: map[string]int64{}}
	first := plain[0]
	for _, p := range append(append([]*scanPass(nil), plain...), withTrace...) {
		r.attempted += p.iframes + 1
		if !bytes.Equal(p.dbJSON, a.refJSON) {
			r.fail(1, "phase-A ResultsDB differs from the one the encoding sessions produced")
		}
		if p.iframes != first.iframes || p.readBytes != first.readBytes {
			r.fail(1, "exact counts differ between passes: %d/%d I-frames, %d/%d bytes", p.iframes, first.iframes, p.readBytes, first.readBytes)
		}
	}
	r.counts["codec.frames"] = int64(first.frames)
	r.counts["codec.iframes"] = int64(first.iframes)
	r.counts["archive.iframe_payload_bytes"] = first.readBytes

	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	// Phase B runs once: it is the second half of the correctness gate, and
	// in the traced run its rate and per-frame decode time are reported.
	workers := 2
	if traced {
		workers = 1
	}
	var single *scanPass
	if traced {
		if single, err = runScanPass(e, e.scanners[:1], rec); err != nil {
			return nil, err
		}
	}
	decodeFPS, decoded, mismatches, err := decodeAll(a, workers, rec)
	if err != nil {
		return nil, err
	}
	r.attempted += first.iframes
	if mismatches > 0 {
		r.fail(mismatches, "%d fully decoded frames differ from the IFrameDecoder output", mismatches)
	}
	if decoded != first.frames {
		r.fail(first.frames-decoded, "phase B decoded %d of %d frames", decoded, first.frames)
	}

	if !traced {
		m := newMetricSet(endToEnd)
		putCosts(m, costsOf(plain))
		m.put("hop_bytes_per_frame", float64(first.readBytes)/float64(first.frames), len(plain))
		var frameLat, answerLat []float64
		late := 0
		for _, p := range plain {
			frameLat = append(frameLat, p.frameLat...)
			answerLat = append(answerLat, p.answerLat...)
			late += p.late
		}
		m.put("frame_latency_ms_p50", median(frameLat), len(frameLat))
		m.put("detect_latency_ms_p50", median(answerLat), len(answerLat))
		m.put("deadline_met_share", 1-float64(late)/float64(len(frameLat)), len(frameLat))
		r.metrics = m
		return r, nil
	}

	m := newMetricSet(perLayer)
	r.metrics = m
	r.spans = rec.spans
	m.put("codec.frames", float64(first.frames), 0)
	m.put("codec.iframes", float64(first.iframes), 0)
	m.put("codec.filter_rate", 1-float64(first.iframes)/float64(first.frames), 0)
	m.put("codec.payload_bytes_per_frame", float64(first.readBytes)/float64(first.frames), 0)
	m.putMean("codec.idecode_ns_per_iframe", rec, "codec", "idecode")
	m.putMean("codec.decode_ns_per_frame", rec, "codec", "decode")
	m.putMean("container.open_ns", rec, "container", "open")
	m.putMean("container.payload_ns_per_iframe", rec, "container", "payload")
	m.putMean("store.put_ns_per_detection", rec, "store", "put")
	fw := rec.stats("nn", "forward")
	m.put("nn.forward_ns_per_frame", float64(fw.total)/float64(single.iframes), single.iframes)
	batches := (first.iframes/len(a.cameras) + scanBatch - 1) / scanBatch * len(a.cameras)
	m.put("infer.batches", float64(batches), 0)
	m.put("infer.batch_fill", float64(first.iframes)/float64(batches)/scanBatch, 0)
	var queries []float64
	for _, p := range plain {
		queries = append(queries, p.queryNs...)
	}
	m.put("store.query_ns_p50", median(queries), len(queries))
	m.put("store.merged_entries", float64(first.iframes), 0)
	m.put("archive.decode_frames_per_s", decodeFPS, decoded)
	putRuntimeLayers(m, costsOf(plain))
	m.put("trace_overhead_share", traceOverhead(costsOf(plain), costsOf(withTrace)), len(withTrace))
	// Glue: CPU per covered frame minus what the replay attributes to layers
	// in phase A.
	var layered int64
	for _, s := range rec.spans {
		if s.Call != "decode" {
			layered += s.EndNs - s.StartNs
		}
	}
	r.putGlue(plain[len(plain)-1].cpuPerFrame(), float64(layered)/float64(single.frames))
	putKernels(m, e.sc)
	return r, nil
}
