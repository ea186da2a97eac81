// Package infer is the shared batched-inference plane: a micro-batching
// scheduler that lets N concurrent video sessions route their decoded
// I-frames through one detector forward pass instead of paying N
// un-amortised single-frame invocations (the SurveilEdge-style shared
// edge/cloud NN worker, specialised to SiEVE's I-frame-only inference).
//
// The scheduler is deliberately timer-free. A batch is flushed when either
//
//   - it reaches the batch size, or
//   - every registered (or reserved, see Reserve) submitter is blocked
//     waiting on the plane — nobody is left to grow the batch, so waiting
//     longer could only deadlock.
//
// Both triggers are pure counts, so a run's behaviour under VirtualClock,
// fixed seeds and -race contains no time-dependent branches; and because
// the batched forward processes items independently with per-item
// arithmetic identical to the single-frame path, the labels a session gets
// back are byte-identical to running its own detector regardless of how
// frames happened to be grouped into batches.
//
// The timer-free rule trades latency for determinism and throughput: a
// registered session that is blocked OUTSIDE the plane — a wall-clock-paced
// replay between I-frames, a push feed whose producer stalls — holds
// partial batches open, so sibling submitters wait on the slowest source's
// I-frame cadence (until it submits, finishes, or its context is
// cancelled). That is the right trade for throughput-oriented replay,
// synthetic and bounded workloads, which is what this repo evaluates;
// latency-sensitive live traffic should run batch size 1 (per-frame, zero
// added coupling) rather than wish for a flush timer that would make runs
// schedule-dependent.
//
// Execution is leader-based: the goroutine whose submission (or
// deregistration) completes a flush condition runs the forward pass itself
// while the plane's mutex is released, then delivers every result. There is
// no background goroutine, so a Plane needs no lifecycle management — it is
// garbage the moment the last client drops it. On a small edge box this is
// also work-conserving: a blocked submitter lends its CPU to the batch that
// unblocks it.
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

// ErrClientClosed is returned by Infer on a client that was closed or that
// abandoned an in-flight request after cancellation.
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

// Plane is the shared micro-batching scheduler. Create with New, hand one
// to every session (Register), and read Stats at any time. All methods are
// safe for concurrent use.
type Plane struct {
	inf   *nn.Inference
	batch int

	mu       sync.Mutex
	clients  int        // registered submitters (running sessions)
	reserved int        // promised registrations not yet made (see Reserve)
	pending  []*request // submitted, not yet taken by a leader
	flushing bool       // a leader is inside the forward pass

	// Batching counters are telemetry instruments, registered in the
	// owner's registry by New. Updated only inside flushLocked (p.mu
	// held), so reads under p.mu are exact.
	batches  *telemetry.Counter
	frames64 *telemetry.Counter
	maxBatch *telemetry.Gauge

	// split is the edge/cloud partitioned-execution state (nil for a plain
	// all-edge plane). See NewSplit.
	split *splitState

	// Leader-owned scratch, guarded by flushing (only one leader at a time).
	takes  []*request
	frames []*frame.YUV
	sets   []labels.Set
}

// request is one client's outstanding frame. done is buffered (capacity 1)
// and owned by the client, so delivery never blocks the leader even if the
// client abandoned the request on cancellation.
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

// Register adds a submitter (consuming one outstanding reservation, if
// any). A session registers when its run starts and Closes the client when
// it ends — the registered count must track sessions that are actually
// executing, because "every registered submitter is blocked" is the
// plane's no-one-else-is-coming flush trigger. Registering idle sessions
// would stall flushes; forgetting to Close would too.
func (p *Plane) Register() *Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.reserved > 0 {
		p.reserved--
	}
	p.clients++
	return &Client{p: p, req: request{done: make(chan labels.Set, 1)}}
}

// Reserve promises n imminent Register calls, holding partial flushes back
// until they arrive. Without it, a fleet's cold start degenerates: the
// first session to reach an I-frame is momentarily the only registered
// submitter, so its frame flushes as a batch of one even though sibling
// feeds are microseconds from submitting. A Hub reserves one slot per feed
// its pool is about to start concurrently (never more — a reservation that
// no running session will consume would hold batches open indefinitely,
// which is why only callers that control scheduling, like Hub.Run, should
// reserve).
func (p *Plane) Reserve(n int) {
	if n <= 0 {
		return
	}
	p.mu.Lock()
	p.reserved += n
	p.mu.Unlock()
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
// delivered (or ctx is cancelled). f is only read before Infer returns, so
// the caller may reuse the frame buffer between calls. On cancellation the
// client is closed: an in-flight frame may still be read by the leader
// until the abandoned result is delivered, and since the session that owns
// the buffer stops on the same cancellation, the buffer is never
// concurrently rewritten.
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
	p.flushLocked()
	p.mu.Unlock()
	select {
	case set := <-c.req.done:
		return set, nil
	case <-ctx.Done():
		c.abandon()
		return nil, ctx.Err()
	}
}

// Close deregisters the client. It must be called exactly once when the
// submitter stops (deferred from the session run); dropping a registered
// client without Close would leave the plane waiting for submissions that
// never come. Close itself may become the leader: removing the last
// straggler is exactly the moment "everyone remaining is blocked" can
// become true.
func (c *Client) Close() {
	if c.closed {
		return
	}
	c.closed = true
	p := c.p
	p.mu.Lock()
	p.clients--
	p.flushLocked()
	p.mu.Unlock()
}

// abandon tears down a client whose Infer lost the race with cancellation.
// If its request is still pending it is removed (the plane must not read
// the frame after Infer returns an error); if a leader already took it, the
// result lands in the buffered done channel and is discarded with the
// client. Either way the client deregisters.
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
	p.clients--
	p.flushLocked()
	p.mu.Unlock()
}

// flushLocked runs batches for as long as a flush condition holds and no
// other leader is active. Called with p.mu held; the mutex is released
// around the forward pass, so submissions keep accumulating while a batch
// computes and the loop re-checks on re-entry. The caller becomes the
// leader — work-conserving and goroutine-free.
func (p *Plane) flushLocked() {
	for !p.flushing && len(p.pending) > 0 &&
		(len(p.pending) >= p.batch || len(p.pending) >= p.clients+p.reserved) {
		n := len(p.pending)
		if n > p.batch {
			n = p.batch
		}
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
			// The leader decides this batch's cut (the hook reads observed
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
