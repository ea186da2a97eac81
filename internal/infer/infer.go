// Package infer is the shared batched-inference plane: a micro-batching
// scheduler that lets N concurrent video sessions route their decoded
// I-frames through one detector forward pass instead of paying N
// un-amortised single-frame invocations (the SurveilEdge-style shared
// edge/cloud NN worker, specialised to SiEVE's I-frame-only inference).
//
// The scheduler is flat combining, timer-free and goroutine-free. A
// submitter that finds no forward running becomes the combiner: it takes
// everything pending, its own frame included, up to the batch size, runs
// the forward with the plane's mutex released, delivers every result, and
// repeats while frames are pending. A submitter that finds a forward
// running queues its frame and blocks; the running combiner takes it in
// its next batch. So batches form from whatever queues while a forward
// runs, and no frame ever waits for a sibling to submit: while a frame is
// pending, a forward is running (the plane is work-conserving).
//
// Which frames share a batch therefore depends on scheduling, and so do
// the batching counters (Stats). The labels do not: the batched forward
// processes items independently with per-item arithmetic identical to the
// single-frame path, so the labels a session gets back are byte-identical
// to running its own detector however frames happened to be grouped.
//
// There is no background goroutine, so a Plane needs no lifecycle
// management: it is garbage the moment the last client drops it.
package infer

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"sieve/internal/frame"
	"sieve/internal/labels"
	"sieve/internal/nn"
	"sieve/internal/telemetry"
)

// ErrClientClosed is returned by Infer on a client that abandoned an
// in-flight request after cancellation.
var ErrClientClosed = errors.New("infer: client closed")

// Stats are a plane's monotonic batching counters.
type Stats struct {
	// Batches is the number of forward passes run.
	Batches int64
	// Frames is the number of frames inferred across all batches.
	Frames int64
	// MaxBatch is the largest batch flushed so far.
	MaxBatch int
}

// MeanBatch is the amortisation factor: frames inferred per forward pass.
func (s Stats) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Frames) / float64(s.Batches)
}

// Add folds o into s: counts sum, MaxBatch is the larger of the two.
func (s *Stats) Add(o Stats) {
	s.Batches += o.Batches
	s.Frames += o.Frames
	s.MaxBatch = max(s.MaxBatch, o.MaxBatch)
}

// Plane is the shared micro-batching scheduler. Create with New, hand one
// to every session (Register), and read Stats at any time. All methods are
// safe for concurrent use.
type Plane struct {
	inf   *nn.Inference
	batch int

	mu       sync.Mutex
	pending  []*request // submitted, not yet taken by a combiner
	flushing bool       // a combiner is inside the forward pass

	// Batching counters are telemetry instruments, registered in the
	// owner's registry by New. Updated only inside combineLocked (p.mu
	// held), so reads under p.mu are exact.
	batches  *telemetry.Counter
	frames64 *telemetry.Counter
	maxBatch *telemetry.Gauge

	// split is the edge/cloud partitioned-execution state (nil for a plain
	// all-edge plane). See NewSplit.
	split *splitState

	// Combiner-owned scratch, guarded by flushing (one combiner at a time).
	takes  []*request
	frames []*frame.YUV
	sets   []labels.Set
}

// request is one client's outstanding frame. done is buffered (capacity 1)
// and owned by the client, so delivery never blocks the combiner even if
// the client abandoned the request on cancellation.
type request struct {
	f    *frame.YUV
	done chan labels.Set
}

// New builds a plane over det with the given flush size. batchSize < 1 is
// clamped to 1 (the trivial per-frame plane a lone session's WithDetector
// degrades to). The batching counters are registered in reg, the plane
// owner's registry, as sieve_infer_batches_total, sieve_infer_frames_total
// and sieve_infer_max_batch with the given labels.
func New(det *nn.YOLite, batchSize int, reg *telemetry.Registry, lbls ...telemetry.Label) *Plane {
	if batchSize < 1 {
		batchSize = 1
	}
	reg.Describe("sieve_infer_batches_total", "detector forward passes run by the shared inference plane")
	reg.Describe("sieve_infer_frames_total", "frames inferred across all batches")
	reg.Describe("sieve_infer_max_batch", "largest batch flushed so far")
	return &Plane{
		inf: nn.NewInference(det), batch: batchSize,
		batches:  reg.Counter("sieve_infer_batches_total", lbls...),
		frames64: reg.Counter("sieve_infer_frames_total", lbls...),
		maxBatch: reg.Gauge("sieve_infer_max_batch", lbls...),
	}
}

// Detector returns the shared detector.
func (p *Plane) Detector() *nn.YOLite { return p.inf.Detector() }

// Stats returns a snapshot of the batching counters — a view over the
// plane's telemetry instruments. Taken under the plane lock, so it never
// observes a flush half-applied.
func (p *Plane) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Batches:  p.batches.Value(),
		Frames:   p.frames64.Value(),
		MaxBatch: int(p.maxBatch.Value()),
	}
}

// Register returns a new submitter handle. A session takes one when its
// run starts. The plane keeps no count of its clients: a client that never
// submits, or submits rarely, holds no sibling back.
func (p *Plane) Register() *Client {
	return &Client{p: p, req: request{done: make(chan labels.Set, 1)}}
}

// Client is one submitter's handle. A client carries its own reusable
// request, so a session's per-I-frame submission allocates nothing. Not
// safe for concurrent use by multiple goroutines.
type Client struct {
	p      *Plane
	req    request
	closed bool
}

// Infer submits one decoded I-frame and blocks until its label set is
// delivered (or ctx is cancelled). If no forward is running, the caller
// runs the pending frames itself, its own included; otherwise it waits for
// the running combiner to take its frame. f is only read before Infer
// returns, so the caller may reuse the frame buffer between calls. On
// cancellation the client is closed: an in-flight frame may still be read
// by the combiner until the abandoned result is delivered, and since the
// session that owns the buffer stops on the same cancellation, the buffer
// is never concurrently rewritten.
func (c *Client) Infer(ctx context.Context, f *frame.YUV) (labels.Set, error) {
	if c.closed {
		return nil, ErrClientClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.req.f = f
	p := c.p
	p.mu.Lock()
	p.pending = append(p.pending, &c.req)
	p.combineLocked()
	p.mu.Unlock()
	select {
	case set := <-c.req.done:
		return set, nil
	case <-ctx.Done():
		c.abandon()
		return nil, ctx.Err()
	}
}

// abandon closes a client whose Infer lost the race with cancellation. If
// its request is still pending it is removed (the plane must not read the
// frame after Infer returns an error); if a combiner already took it, the
// result lands in the buffered done channel and is discarded with the
// client.
func (c *Client) abandon() {
	c.closed = true
	p := c.p
	p.mu.Lock()
	for i, r := range p.pending {
		if r == &c.req {
			p.pending = append(p.pending[:i], p.pending[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
}

// combineLocked runs batches of up to the batch size until nothing is
// pending, unless another combiner is already running. Called with p.mu
// held; the mutex is released around the forward pass, so submissions
// keep queueing while a batch computes and form the next one.
func (p *Plane) combineLocked() {
	for !p.flushing && len(p.pending) > 0 {
		n := min(len(p.pending), p.batch)
		p.takes = append(p.takes[:0], p.pending[:n]...)
		rest := copy(p.pending, p.pending[n:])
		for i := rest; i < len(p.pending); i++ {
			p.pending[i] = nil
		}
		p.pending = p.pending[:rest]
		p.frames = p.frames[:0]
		for _, r := range p.takes {
			p.frames = append(p.frames, r.f)
		}
		p.flushing = true
		p.mu.Unlock()
		var sets []labels.Set
		var splitInfo nn.SplitInfo
		if p.split != nil {
			// The combiner decides this batch's cut (the hook reads observed
			// link state) and runs the partitioned forward; a refused
			// activation falls back to all-edge inside the split call.
			sets, splitInfo = p.inf.FrameLabelsBatchSplit(p.frames, p.sets, p.split.nextCut(), p.split.ship)
		} else {
			sets = p.inf.FrameLabelsBatch(p.frames, p.sets)
		}
		p.mu.Lock()
		p.sets = sets
		for i, r := range p.takes {
			r.f = nil
			r.done <- sets[i]
			sets[i] = nil
		}
		p.batches.Inc()
		p.frames64.Add(int64(n))
		p.maxBatch.Max(int64(n))
		if p.split != nil {
			p.split.record(splitInfo, n)
		}
		p.flushing = false
	}
}

// String renders the counters for reports.
func (s Stats) String() string {
	return fmt.Sprintf("%d frames in %d batches (mean %.2f, max %d)",
		s.Frames, s.Batches, s.MeanBatch(), s.MaxBatch)
}
