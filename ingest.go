package sieve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"sieve/internal/clock"
	"sieve/internal/container"
	"sieve/internal/frame"
	"sieve/internal/store"
	"sieve/internal/telemetry"
	"sieve/internal/wire"
)

// OverloadPolicy selects what the ingest plane does when a feed's queue
// is full — the enforcement point for the paper tier's defining problem
// of stream overload control. All three policies preserve the stored
// stream's decodability: any frame that follows dropped frames is
// force-encoded as an I-frame (see PROTOCOL.md "Discontinuity rule").
type OverloadPolicy int

const (
	// Backpressure (the default) blocks the connection reader until the
	// encoder catches up, so the client's own writes stall — the wire
	// extension of PushSource's blocking Push.
	Backpressure OverloadPolicy = iota
	// RejectNew drops the incoming frame, notifies the client with a
	// DRAIN(SHED) message, and keeps the queued frames — freshest work
	// is sacrificed, in-flight work finishes.
	RejectNew
	// DropOldestGOP evicts every queued (accepted but not yet encoded)
	// frame to make room for the newest one, notifying the client with
	// DRAIN(EVICTED) — in-flight work is sacrificed so the feed tracks
	// the present, the policy a live monitoring deployment wants.
	DropOldestGOP
)

// String names the policy.
func (p OverloadPolicy) String() string {
	switch p {
	case Backpressure:
		return "backpressure"
	case RejectNew:
		return "reject-new"
	case DropOldestGOP:
		return "drop-oldest-gop"
	default:
		return fmt.Sprintf("OverloadPolicy(%d)", int(p))
	}
}

// OverloadPolicyByName resolves a CLI name to a policy.
func OverloadPolicyByName(name string) (OverloadPolicy, error) {
	switch name {
	case "backpressure":
		return Backpressure, nil
	case "reject-new":
		return RejectNew, nil
	case "drop-oldest-gop":
		return DropOldestGOP, nil
	}
	return 0, fmt.Errorf("sieve: unknown overload policy %q (want backpressure, reject-new or drop-oldest-gop)", name)
}

// IngestStats are the ingest plane's monotonic counters, surfaced as
// HubStats.Ingest / ClusterStats.Ingest.
type IngestStats struct {
	// FeedsAdmitted / FeedsRejected count HELLO outcomes.
	FeedsAdmitted int
	FeedsRejected int
	// Reconnects counts successful RESUME re-attachments.
	Reconnects int
	// FramesReceived / BytesReceived count frames (and their raw pixel
	// bytes) accepted into ingest queues.
	FramesReceived int64
	BytesReceived  int64
	// Duplicates counts re-sent frames below the expected index, dropped
	// idempotently (ack loss makes clients conservative, never wrong).
	Duplicates int64
	// Skipped counts frames the client declared lost by jumping the
	// frame index forward (a live camera that cannot rewind).
	Skipped int64
	// Shed counts frames dropped by the RejectNew policy; Evicted counts
	// frames removed from queues by the DropOldestGOP policy.
	Shed    int64
	Evicted int64
	// AcksSent / AcksDropped count ACK delivery attempts; acks are
	// advisory, so drops (no client attached) are counted, not retried.
	AcksSent    int64
	AcksDropped int64
}

// IngestOption configures an IngestListener.
type IngestOption func(*ingestConfig)

type ingestConfig struct {
	expectFeeds int
	maxFeeds    int
	queueCap    int
	policy      OverloadPolicy
	maxFrames   int64
	maxBytes    int64
	sessionOpts func(feed string, info SourceInfo) []SessionOption
}

// WithExpectedFeeds sets how many wire feeds the admission window waits
// for before the hub or cluster run proceeds (default 1). The feed set
// of a run is frozen at Run like any other feed set; HELLOs arriving
// after the window closes are rejected, while RESUMEs re-attach to live
// feeds for the whole run.
func WithExpectedFeeds(n int) IngestOption {
	return func(c *ingestConfig) {
		if n > 0 {
			c.expectFeeds = n
		}
	}
}

// WithMaxFeeds caps admitted feeds (default: the expected count) — the
// admission-control knob: HELLOs beyond the cap get a FEEDS_EXHAUSTED
// error even while the window is open.
func WithMaxFeeds(n int) IngestOption {
	return func(c *ingestConfig) { c.maxFeeds = n }
}

// WithIngestBuffer sets each feed's ingest queue capacity in frames
// (default 8) — the buffer the overload policies act on.
func WithIngestBuffer(n int) IngestOption {
	return func(c *ingestConfig) {
		if n > 0 {
			c.queueCap = n
		}
	}
}

// WithOverloadPolicy selects the full-queue behaviour (default
// Backpressure).
func WithOverloadPolicy(p OverloadPolicy) IngestOption {
	return func(c *ingestConfig) { c.policy = p }
}

// WithFeedQuota bounds each feed: at most maxFrames accepted frames and
// maxBytes raw pixel bytes (0 = unlimited). Hitting a quota finalises
// the feed's stream gracefully and tells the client why (CLOSE with a
// quota reason); it is terminal, not throttling.
func WithFeedQuota(maxFrames, maxBytes int64) IngestOption {
	return func(c *ingestConfig) { c.maxFrames, c.maxBytes = maxFrames, maxBytes }
}

// WithIngestSession supplies extra SessionOptions for each admitted
// feed (a VirtualClock for deterministic tests, a detector, tuned
// params overriding the client's HELLO). Called once per HELLO with the
// feed's name and negotiated geometry.
func WithIngestSession(fn func(feed string, info SourceInfo) []SessionOption) IngestOption {
	return func(c *ingestConfig) { c.sessionOpts = fn }
}

// ingestTarget is what a listener admits feeds onto: a Hub or a
// Cluster.
type ingestTarget interface {
	// addIngestFeed registers the feed and returns its session, the
	// assigned site name ("" for a hub) and the sink buffer when the
	// listener owns archival (nil when the target archives itself).
	addIngestFeed(name string, src FrameSource, opts []SessionOption) (*Session, string, *container.Buffer, error)
	// archiveStore returns the store holding feed's finished stream, if
	// any — the resume-past-end-of-store validation source.
	archiveStore(feed string) (*EdgeStoreDB, bool)
	// registry is the target's metrics registry, where the listener
	// registers its counters.
	registry() *telemetry.Registry
}

// IngestListener is the server side of the SVWP ingest plane: it turns
// each connection accepted from a net.Listener into a feed on a Hub
// (WithListener) or Cluster (WithClusterListener), flowing the pushed
// raw frames through the same pull-based Session path an in-process
// PushSource uses — which is why a wire-ingested feed's results are
// byte-identical to an in-process run of the same frames.
//
// Lifecycle: the owning Run opens an admission window, accepting HELLOs
// until the expected feed count is reached, then freezes the feed set
// and runs it. Disconnected feeds stay live awaiting a RESUME for the
// rest of the run; HELLOs after the window are rejected. See PROTOCOL.md
// for the wire contract and DESIGN.md ("Network ingest plane") for
// where this sits in the data flow.
type IngestListener struct {
	ln    net.Listener
	cfg   ingestConfig
	store *EdgeStoreDB // unlimited archive of finished wire-feed streams (Hub targets)

	mu        sync.Mutex
	target    ingestTarget
	runCtx    context.Context
	feeds     map[string]*wireFeed
	order     []string // admission order, for deterministic reporting
	open      bool     // admission window open
	ended     bool     // run finished; resumes impossible
	started   bool
	admitWake chan struct{}
	ctr       *ingestCounters       // instruments behind IngestStats, nil until start
	conns     map[net.Conn]struct{} // live raw conns, closed by Close
}

// ingestCounters are the plane's telemetry instruments, registered by
// start in the registry of the hub or cluster the listener serves.
// IngestStats is the snapshot view over them.
type ingestCounters struct {
	feedsAdmitted  *telemetry.Counter
	feedsRejected  *telemetry.Counter
	reconnects     *telemetry.Counter
	framesReceived *telemetry.Counter
	bytesReceived  *telemetry.Counter
	duplicates     *telemetry.Counter
	skipped        *telemetry.Counter
	shed           *telemetry.Counter
	evicted        *telemetry.Counter
	acksSent       *telemetry.Counter
	acksDropped    *telemetry.Counter
}

func newIngestCounters(reg *telemetry.Registry) *ingestCounters {
	reg.Describe("sieve_ingest_frames_received_total", "frames accepted into ingest queues")
	reg.Describe("sieve_ingest_bytes_received_total", "raw pixel bytes accepted into ingest queues")
	return &ingestCounters{
		feedsAdmitted:  reg.Counter("sieve_ingest_feeds_admitted_total"),
		feedsRejected:  reg.Counter("sieve_ingest_feeds_rejected_total"),
		reconnects:     reg.Counter("sieve_ingest_reconnects_total"),
		framesReceived: reg.Counter("sieve_ingest_frames_received_total"),
		bytesReceived:  reg.Counter("sieve_ingest_bytes_received_total"),
		duplicates:     reg.Counter("sieve_ingest_duplicates_total"),
		skipped:        reg.Counter("sieve_ingest_skipped_total"),
		shed:           reg.Counter("sieve_ingest_shed_total"),
		evicted:        reg.Counter("sieve_ingest_evicted_total"),
		acksSent:       reg.Counter("sieve_ingest_acks_sent_total"),
		acksDropped:    reg.Counter("sieve_ingest_acks_dropped_total"),
	}
}

// MemListener is an in-process net.Listener over synchronous pipes —
// the deterministic transport for tests, examples and benchmarks. Dial
// with Dial; everything else is a standard net.Listener.
type MemListener = wire.MemListener

// NewMemListener returns an open in-memory listener.
func NewMemListener() *MemListener { return wire.NewMemListener() }

// NewIngestListener wraps a net.Listener (TCP, unix socket, or a
// MemListener) as an ingest plane. Attach it to a Hub with WithListener
// or a Cluster with WithClusterListener; accepting starts when that
// hub's or cluster's Run opens the admission window.
func NewIngestListener(ln net.Listener, opts ...IngestOption) *IngestListener {
	cfg := ingestConfig{expectFeeds: 1, queueCap: 8}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.maxFeeds <= 0 {
		cfg.maxFeeds = cfg.expectFeeds
	}
	return &IngestListener{
		ln:        ln,
		cfg:       cfg,
		store:     store.NewEdgeStore(0),
		feeds:     make(map[string]*wireFeed),
		admitWake: make(chan struct{}, 1),
		conns:     make(map[net.Conn]struct{}),
	}
}

// Addr returns the wrapped listener's address.
func (l *IngestListener) Addr() net.Addr { return l.ln.Addr() }

// Store returns the EdgeStore archiving finished wire-feed streams
// (Hub targets; cluster targets archive per site).
func (l *IngestListener) Store() *EdgeStoreDB { return l.store }

// Stats returns a counters snapshot; safe to call at any time, and zero
// before the owning Run starts the listener. IngestStats is a view over
// the plane's telemetry instruments: each counter is read atomically, the
// snapshot as a whole is not a frozen cross-counter cut (the standard
// monitoring contract).
func (l *IngestListener) Stats() IngestStats {
	l.mu.Lock()
	c := l.ctr
	l.mu.Unlock()
	if c == nil {
		return IngestStats{}
	}
	return IngestStats{
		FeedsAdmitted:  int(c.feedsAdmitted.Value()),
		FeedsRejected:  int(c.feedsRejected.Value()),
		Reconnects:     int(c.reconnects.Value()),
		FramesReceived: c.framesReceived.Value(),
		BytesReceived:  c.bytesReceived.Value(),
		Duplicates:     c.duplicates.Value(),
		Skipped:        c.skipped.Value(),
		Shed:           c.shed.Value(),
		Evicted:        c.evicted.Value(),
		AcksSent:       c.acksSent.Value(),
		AcksDropped:    c.acksDropped.Value(),
	}
}

// Close shuts the ingest plane down: the net listener stops accepting
// and every live connection is closed. Sessions already running drain
// their queues and finish.
func (l *IngestListener) Close() error {
	err := l.ln.Close()
	l.mu.Lock()
	conns := make([]net.Conn, 0, len(l.conns))
	//sieve:unordered l.conns is a set; Close on distinct conns commutes
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return err
}

// Feeds lists admitted feed names in admission order.
func (l *IngestListener) Feeds() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.order...)
}

// admit runs the admission window that opens Hub.Run and Cluster.Run.
// The owner calls it holding mu and gets mu back with *started set on
// every outcome, so a failed window (listener attached elsewhere, ctx
// done early) still spends the owner's one Run. The window runs
// unlocked: wire feeds admit themselves through the owner's Add. On
// success the owner defers ended. A nil listener has no window.
func (l *IngestListener) admit(ctx context.Context, target ingestTarget, mu *sync.Mutex, started *bool) (ended func(), err error) {
	defer func() { *started = true }()
	if l == nil {
		return func() {}, nil
	}
	mu.Unlock()
	defer mu.Lock()
	if err := l.start(ctx, target); err != nil {
		return nil, err
	}
	if err := l.awaitAdmission(ctx); err != nil {
		l.runEnded()
		return nil, err
	}
	return l.runEnded, nil
}

// start binds the listener to its target, registers its counters in the
// target's registry and begins accepting. It runs at most once (started),
// and nothing is counted before the accept loop it launches, so l.ctr
// never changes once an increment can read it: the increments take no
// lock.
func (l *IngestListener) start(ctx context.Context, target ingestTarget) error {
	l.mu.Lock()
	if l.started {
		l.mu.Unlock()
		return errors.New("sieve: ingest listener already attached to a running hub or cluster")
	}
	l.started = true
	l.ctr = newIngestCounters(target.registry())
	l.open = true
	l.target = target
	l.runCtx = ctx
	l.mu.Unlock()
	go l.acceptLoop()
	return nil
}

// awaitAdmission blocks until the expected number of feeds has been
// admitted (or ctx is cancelled), then closes the admission window. The
// expectation is clamped to MaxFeeds: a cap below the expected count
// must close the window at the cap, not wait forever.
func (l *IngestListener) awaitAdmission(ctx context.Context) error {
	want := l.cfg.expectFeeds
	if l.cfg.maxFeeds < want {
		want = l.cfg.maxFeeds
	}
	for {
		l.mu.Lock()
		n := int(l.ctr.feedsAdmitted.Value())
		if n >= want {
			l.open = false
			l.mu.Unlock()
			return nil
		}
		l.mu.Unlock()
		select {
		case <-l.admitWake:
		case <-ctx.Done():
			l.mu.Lock()
			l.open = false
			l.mu.Unlock()
			return fmt.Errorf("sieve: ingest: admission window cancelled after %d/%d feeds: %w",
				n, want, ctx.Err())
		}
	}
}

// runEnded marks the run complete: all resumes are rejected from here.
func (l *IngestListener) runEnded() {
	l.mu.Lock()
	l.open = false
	l.ended = true
	l.mu.Unlock()
}

func (l *IngestListener) acceptLoop() {
	for {
		nc, err := l.ln.Accept()
		if err != nil {
			return
		}
		l.mu.Lock()
		l.conns[nc] = struct{}{}
		l.mu.Unlock()
		go func() {
			defer func() {
				l.mu.Lock()
				delete(l.conns, nc)
				l.mu.Unlock()
			}()
			l.handleConn(nc)
		}()
	}
}

// reject answers a connection with a terminal ERROR and closes it.
func (l *IngestListener) reject(c *wire.Conn, code wire.ErrCode, format string, args ...any) {
	c.SendError(wire.ErrorMsg{Code: code, Msg: fmt.Sprintf(format, args...)})
	c.Close()
	l.ctr.feedsRejected.Inc()
}

func (l *IngestListener) handleConn(nc net.Conn) {
	c := wire.NewConn(nc)
	t, payload, err := c.ReadMessage()
	if err != nil {
		c.Close()
		return
	}
	switch t {
	case wire.MsgHello:
		h, err := wire.ParseHello(payload)
		if err != nil {
			l.reject(c, wire.ErrCodeProtocol, "%v", err)
			return
		}
		f, code, msg := l.admitFeed(h)
		if f == nil {
			l.reject(c, code, "%s", msg)
			return
		}
		l.serveFeed(f, c, false)
	case wire.MsgResume:
		rs, err := wire.ParseResume(payload)
		if err != nil {
			l.reject(c, wire.ErrCodeProtocol, "%v", err)
			return
		}
		f, code, msg := l.resumeFeed(rs)
		if f == nil {
			l.reject(c, code, "%s", msg)
			return
		}
		l.serveFeed(f, c, true)
	default:
		l.reject(c, wire.ErrCodeProtocol, "connection must open with HELLO or RESUME, got %s", t)
		return
	}
}

// serveFeed takes over f's read side for c, answers the handshake with the
// feed's cursor (0 for a fresh feed) and serves FRAMEs until the connection
// or the stream ends.
func (l *IngestListener) serveFeed(f *wireFeed, c *wire.Conn, resume bool) {
	// attach returns only once a superseded reader has returned, so the
	// cursor read here is final: no FRAME of the old connection can still
	// move it.
	rd := f.attach(c)
	defer rd.release()
	f.mu.Lock()
	resumeFrom := f.next
	f.mu.Unlock()
	if err := c.SendWelcome(wire.Welcome{
		Version: wire.ProtocolVersion, ResumeFrom: resumeFrom,
		FrameBytes: wire.FrameBytes(f.hello.Width, f.hello.Height),
	}); err != nil {
		c.Close()
		return
	}
	f.connect(rd)
	if resume {
		l.ctr.reconnects.Inc()
	}
	l.serveFrames(f, rd)
}

// admitFeed runs admission control for a HELLO and, when it passes,
// creates the feed's session on the target. Returns the feed, or a nil
// feed with the rejection code and message.
func (l *IngestListener) admitFeed(h wire.Hello) (*wireFeed, wire.ErrCode, string) {
	l.mu.Lock()
	if l.ended {
		l.mu.Unlock()
		return nil, wire.ErrCodeClosed, "ingest plane closed (run finished)"
	}
	if !l.open {
		l.mu.Unlock()
		return nil, wire.ErrCodeFeedsExhausted, "admission window closed (feed set frozen at Run)"
	}
	if _, dup := l.feeds[h.Feed]; dup {
		l.mu.Unlock()
		return nil, wire.ErrCodeDuplicateFeed, fmt.Sprintf("feed %q already admitted (reconnect with RESUME)", h.Feed)
	}
	if len(l.feeds) >= l.cfg.maxFeeds {
		l.mu.Unlock()
		return nil, wire.ErrCodeFeedsExhausted, fmt.Sprintf("max feeds (%d) reached", l.cfg.maxFeeds)
	}
	target, runCtx := l.target, l.runCtx
	l.mu.Unlock()

	f := newWireFeed(l, h)
	info := f.src.Info()
	opts := []SessionOption{WithTunedParams(f.params)}
	if l.cfg.sessionOpts != nil {
		opts = append(opts, l.cfg.sessionOpts(h.Feed, info)...)
	}
	opts = append(opts, withEventTap(f.onEvent), withRunDone(f.finish))
	sess, site, sink, err := target.addIngestFeed(h.Feed, f.src, opts)
	if err != nil {
		return nil, wire.ErrCodeProtocol, err.Error()
	}
	f.sess, f.site, f.sink, f.runCtx = sess, site, sink, runCtx

	l.mu.Lock()
	// Re-check under the lock: a racing HELLO for the same name can only
	// be on the target already, which addIngestFeed would have rejected,
	// so the map stays consistent with the target's feed set.
	l.feeds[h.Feed] = f
	l.order = append(l.order, h.Feed)
	l.ctr.feedsAdmitted.Inc()
	l.mu.Unlock()
	select {
	case l.admitWake <- struct{}{}:
	default:
	}
	return f, 0, ""
}

// resumeFeed validates a RESUME against live and archived feed state.
func (l *IngestListener) resumeFeed(rs wire.Resume) (*wireFeed, wire.ErrCode, string) {
	l.mu.Lock()
	f, live := l.feeds[rs.Feed]
	ended := l.ended
	l.mu.Unlock()
	if !live {
		if st, ok := l.targetArchive(rs.Feed); ok {
			code, msg := l.validateStoredResume(st, rs)
			return nil, code, msg
		}
		return nil, wire.ErrCodeUnknownFeed, fmt.Sprintf("unknown feed %q", rs.Feed)
	}
	f.mu.Lock()
	finished, lastI := f.finished, f.lastI
	f.mu.Unlock()
	if finished || ended {
		if st, ok := l.targetArchive(rs.Feed); ok {
			code, msg := l.validateStoredResume(st, rs)
			return nil, code, msg
		}
		return nil, wire.ErrCodeFeedFinished, fmt.Sprintf("feed %q finished; stream finalised", rs.Feed)
	}
	if rs.Token > lastI {
		return nil, wire.ErrCodeBadResume,
			fmt.Sprintf("resume token %d ahead of last encoded I-frame %d", rs.Token, lastI)
	}
	return f, 0, ""
}

func (l *IngestListener) targetArchive(feed string) (*EdgeStoreDB, bool) {
	l.mu.Lock()
	target := l.target
	l.mu.Unlock()
	if target == nil {
		return nil, false
	}
	return target.archiveStore(feed)
}

// validateStoredResume classifies a RESUME against an archived stream:
// a token past the last stored I-frame is a BAD_RESUME_TOKEN (the edge
// never retained that history); otherwise the stream is simply finished.
func (l *IngestListener) validateStoredResume(st *EdgeStoreDB, rs wire.Resume) (wire.ErrCode, string) {
	lastI, frames, err := st.ResumeCursor(rs.Feed)
	if err != nil {
		return wire.ErrCodeUnknownFeed, err.Error()
	}
	if int(rs.Token) > lastI {
		return wire.ErrCodeBadResume,
			fmt.Sprintf("resume token %d past end of store (last stored I-frame %d of %d frames)",
				rs.Token, lastI, frames)
	}
	return wire.ErrCodeFeedFinished,
		fmt.Sprintf("feed %q finished; stream finalised with %d frames", rs.Feed, frames)
}

// errStopReading tells serveFrames to stop consuming the connection
// without detaching it (trailing acks and the server CLOSE still flow).
var errStopReading = errors.New("sieve: ingest: stop reading")

// serveFrames is the per-connection read loop after a successful
// handshake.
func (l *IngestListener) serveFrames(f *wireFeed, rd *feedReader) {
	c := rd.conn
	for {
		t, payload, err := c.ReadMessage()
		if err != nil {
			// Connection died: keep the feed alive awaiting RESUME.
			f.detach(c)
			c.Close()
			return
		}
		switch t {
		case wire.MsgFrame:
			if err := l.acceptFrame(f, rd, payload); err != nil {
				if errors.Is(err, errStopReading) {
					return
				}
				c.SendError(wire.ErrorMsg{Code: wire.ErrCodeProtocol, Msg: err.Error()})
				f.detach(c)
				c.Close()
				return
			}
		case wire.MsgClose:
			// Graceful end of the client's stream: the queue drains, the
			// session finalises, finish() answers with the server CLOSE.
			f.queue.Close(nil)
			return
		default:
			c.SendError(wire.ErrorMsg{Code: wire.ErrCodeProtocol,
				Msg: fmt.Sprintf("unexpected %s after handshake", t)})
			f.detach(c)
			c.Close()
			return
		}
	}
}

// acceptFrame applies idempotency, gap detection, quotas and the
// overload policy to one FRAME message.
func (l *IngestListener) acceptFrame(f *wireFeed, rd *feedReader, payload []byte) error {
	idx, err := wire.FrameIndex(payload)
	if err != nil {
		return err
	}
	rawBytes := int64(len(payload) - 8)

	f.mu.Lock()
	next := f.next
	if idx < next {
		// Duplicate after ack loss: the frame is already in the stream
		// (or queued for it); dropping it here is what makes resends
		// idempotent.
		f.mu.Unlock()
		l.ctr.duplicates.Inc()
		return nil
	}
	if idx > next {
		// The client declared frames [next, idx) lost — a live source
		// that cannot rewind past a disconnect. The stream continues but
		// must restart prediction (discontinuity rule).
		f.pendingGap = true
		l.ctr.skipped.Add(idx - next)
	}
	if (l.cfg.maxFrames > 0 && f.recvFrames+1 > l.cfg.maxFrames) ||
		(l.cfg.maxBytes > 0 && f.recvBytes+rawBytes > l.cfg.maxBytes) {
		reason := wire.CloseQuotaFrames
		if l.cfg.maxFrames == 0 || f.recvFrames+1 <= l.cfg.maxFrames {
			reason = wire.CloseQuotaBytes
		}
		f.closeReason = reason
		f.mu.Unlock()
		// Terminal: what was accepted so far becomes the feed's final
		// stream; finish() tells the client why.
		f.queue.Close(nil)
		return errStopReading
	}
	// Reserve idx in the same critical section as the duplicate check: the
	// lock is dropped for decode and the queue push, and until the cursor
	// has moved a second FRAME carrying idx would pass the check too. Its
	// ack slot is reserved here as well — the session can encode the frame
	// (and onEvent look for its slot) the moment the push returns.
	f.next = idx + 1
	f.pending = append(f.pending, idx)
	discont := f.pendingGap
	f.mu.Unlock()

	buf := f.getBuf()
	// unreserve drops the ack slot of a frame that never reached the queue
	// and leaves the cursor where the caller says: idx, so a resume asks
	// for the frame again, or idx+1 for a frame shed on purpose. The slot
	// is still the FIFO's tail: the feed has one reader at a time (attach
	// joins the superseded one) and the session only takes slots of frames
	// it was handed.
	unreserve := func(cursor int64) {
		f.putBuf(buf)
		f.mu.Lock()
		f.next = cursor
		f.pending = f.pending[:len(f.pending)-1]
		f.mu.Unlock()
	}
	if _, err := wire.DecodeFrameInto(payload, buf); err != nil {
		unreserve(idx)
		return err
	}
	it := wire.Item{F: buf, Index: idx, Discont: discont}

	switch l.cfg.policy {
	case RejectNew:
		ok, err := f.queue.TryPush(it)
		if err != nil {
			unreserve(idx)
			return errStopReading
		}
		if !ok {
			// Shed the newest frame (the cursor stays past it); the client
			// learns via DRAIN and the next accepted frame starts a fresh
			// GOP.
			unreserve(idx + 1)
			f.mu.Lock()
			f.pendingGap = true
			f.mu.Unlock()
			l.ctr.shed.Inc()
			rd.conn.SendDrain(wire.Drain{Code: wire.DrainShed, Frame: idx, Count: 1})
			return nil
		}
	case DropOldestGOP:
		ok, err := f.queue.TryPush(it)
		if err != nil {
			unreserve(idx)
			return errStopReading
		}
		if !ok {
			evicted := f.queue.EvictAll()
			f.mu.Lock()
			// The evicted frames were accepted but never encoded: remove
			// them from the ack FIFO, where they sit just before this
			// frame's own slot, and mark the hole.
			if n := len(f.pending) - 1 - len(evicted); n >= 0 {
				f.pending = append(f.pending[:n], idx)
			}
			f.mu.Unlock()
			for _, ev := range evicted {
				f.putBuf(ev.F)
			}
			l.ctr.evicted.Add(int64(len(evicted)))
			if len(evicted) > 0 {
				rd.conn.SendDrain(wire.Drain{Code: wire.DrainEvicted,
					Frame: evicted[0].Index, Count: len(evicted)})
			}
			it.Discont = true
			if ok, err := f.queue.TryPush(it); err != nil || !ok {
				unreserve(idx)
				return errStopReading
			}
		}
	default: // Backpressure
		// rd.ctx ends with the run or when a RESUME supersedes this
		// connection: a reader blocked on a full queue then gives its frame
		// back instead of holding up the hand-off.
		if err := f.queue.Push(rd.ctx, it); err != nil {
			unreserve(idx)
			if errors.Is(err, wire.ErrQueueClosed) || errors.Is(err, context.Canceled) ||
				errors.Is(err, context.DeadlineExceeded) {
				return errStopReading
			}
			return err
		}
	}
	f.mu.Lock()
	f.pendingGap = false
	f.recvFrames++
	f.recvBytes += rawBytes
	f.mu.Unlock()
	l.ctr.framesReceived.Inc()
	l.ctr.bytesReceived.Add(rawBytes)
	return nil
}

// wireFeed is one admitted feed's server-side state, living for the
// whole run regardless of how many connections serve it.
type wireFeed struct {
	lst    *IngestListener
	hello  wire.Hello
	params EncoderParams
	queue  *wire.Queue
	src    *wireSource
	pool   chan *Frame
	runCtx context.Context

	sess *Session
	site string
	sink *container.Buffer // non-nil when the listener archives (hub target)

	mu          sync.Mutex
	conn        *wire.Conn  // attached connection, nil while disconnected
	reader      *feedReader // newest handler to take the read side (owner of next's writes)
	next        int64       // next expected source frame index
	lastI       int64       // last source index encoded as an I-frame (-1 none)
	pending     []int64     // accepted source indices not yet encoded (FIFO)
	pendingGap  bool        // next accepted frame follows lost frames
	recvFrames  int64
	recvBytes   int64
	finished    bool
	closeReason wire.CloseReason
	// The run's ending, set by finish before done closes: the run's error,
	// or the CLOSE to send when it is nil.
	endErr   error
	endClose wire.Close
	done     chan struct{}
}

func newWireFeed(l *IngestListener, h wire.Hello) *wireFeed {
	params := DefaultParams(h.Width, h.Height)
	if h.GOP > 0 {
		params.GOPSize = h.GOP
	}
	if h.MinGOP > 0 {
		params.MinGOP = h.MinGOP
	}
	params.Scenecut = h.Scenecut
	if h.Quality > 0 {
		params.Quality = h.Quality
	}
	f := &wireFeed{
		lst:    l,
		hello:  h,
		params: params,
		queue:  wire.NewQueue(l.cfg.queueCap),
		pool:   make(chan *Frame, l.cfg.queueCap+2),
		lastI:  -1,
		done:   make(chan struct{}),
	}
	f.src = &wireSource{
		feed: f,
		info: SourceInfo{Name: h.Feed, Width: h.Width, Height: h.Height, FPS: h.FPS, Frames: -1},
	}
	return f
}

func (f *wireFeed) getBuf() *Frame {
	select {
	case b := <-f.pool:
		return b
	default:
		return frame.NewYUV(f.hello.Width, f.hello.Height)
	}
}

func (f *wireFeed) putBuf(b *Frame) {
	if b == nil {
		return
	}
	select {
	case f.pool <- b:
	default:
	}
}

// feedReader is one connection's claim on a feed's read side. Only the
// newest reader may move the feed's cursor: attach closes the previous
// one's connection, cancels its blocked push and waits for its handler to
// return before the new handler reads f.next.
type feedReader struct {
	conn *wire.Conn
	ctx  context.Context // the run's context, cancelled early on supersede
	stop context.CancelFunc
	done chan struct{} // closed once the owning handler has returned
}

// release marks the owning handler as returned; handleConn defers it.
func (r *feedReader) release() {
	r.stop()
	close(r.done)
}

// attach hands the feed's read side to the handler serving c, superseding
// any previous one — deterministic reconnects do not depend on the server
// noticing the old connection die first. It returns once the superseded
// handler has returned. The feed has no connection until connect: acks of
// frames still in flight from the old one are dropped, not sent ahead of
// the WELCOME.
func (f *wireFeed) attach(c *wire.Conn) *feedReader {
	rd := &feedReader{conn: c, done: make(chan struct{})}
	rd.ctx, rd.stop = context.WithCancel(f.runCtx)
	f.mu.Lock()
	old := f.reader
	f.conn, f.reader = nil, rd
	f.mu.Unlock()
	if old != nil {
		old.conn.Close()
		old.stop()
		<-old.done
	}
	return rd
}

// connect routes the feed's acks and terminal CLOSE to rd's connection,
// once its WELCOME is out — unless a newer reader has taken over. A feed
// whose session ended before this WELCOME went out (a run abandoned right
// after admission) had no connection to tell: rd's gets the ending here.
func (f *wireFeed) connect(rd *feedReader) {
	f.mu.Lock()
	finished := f.finished
	if !finished && f.reader == rd {
		f.conn = rd.conn
	}
	f.mu.Unlock()
	if finished {
		<-f.done
		f.end(rd.conn)
	}
}

// detach clears the feed's connection if it is still c.
func (f *wireFeed) detach(c *wire.Conn) {
	f.mu.Lock()
	if f.conn == c {
		f.conn = nil
	}
	f.mu.Unlock()
}

// onEvent is the session event tap: it acks each encoded frame back to
// the attached client, mapping stream order to source indices through
// the pending FIFO (encode order is push order — the session is the
// queue's only consumer).
func (f *wireFeed) onEvent(ev Event) {
	if ev.Kind != EventFrameEncoded {
		return
	}
	f.mu.Lock()
	var srcIdx int64 = -1
	if len(f.pending) > 0 {
		srcIdx = f.pending[0]
		f.pending = f.pending[1:]
	}
	if srcIdx >= 0 && ev.FrameType == FrameI {
		f.lastI = srcIdx
	}
	conn := f.conn
	f.mu.Unlock()
	if srcIdx < 0 {
		return
	}
	if conn == nil {
		f.lst.ctr.acksDropped.Inc()
		return
	}
	if err := conn.SendAck(wire.Ack{Frame: srcIdx, Type: uint8(ev.FrameType)}); err != nil {
		f.detach(conn)
		f.lst.ctr.acksDropped.Inc()
		return
	}
	f.lst.ctr.acksSent.Inc()
}

// finish is the session completion callback: archive the stream (hub
// targets), answer the client with the server CLOSE (or the session
// error), and release the connection.
func (f *wireFeed) finish(runErr error) {
	f.mu.Lock()
	f.finished = true
	f.endClose = wire.Close{Reason: f.closeReason, Frames: f.recvFrames}
	conn := f.conn
	f.conn, f.reader = nil, nil // no resume can follow; let the connection's buffers go
	f.mu.Unlock()

	if f.sink != nil && runErr == nil {
		if err := f.lst.store.Put(f.hello.Feed, f.sink); err != nil {
			runErr = err
		}
	}
	f.endErr = runErr
	if conn != nil {
		f.end(conn)
	}
	close(f.done)
}

// endWriteTimeout bounds the terminal write on a feed's connection. end
// runs on the session's goroutine (finish) or the handler's (connect), so a
// client that stopped reading would otherwise hold the session, and the
// Run that waits for it, for as long as it does not read.
const endWriteTimeout = 2 * time.Second

// end answers c with how the feed's run ended — ERROR with the run's
// error, or the server CLOSE — and closes it, also when the write has not
// gone out within endWriteTimeout. The deadline is wall time: it bounds a
// real write whatever clock the run keeps.
func (f *wireFeed) end(c *wire.Conn) {
	// This fails only on a connection already closed, where the write
	// below fails at once too.
	_ = c.SetWriteDeadline(clock.Wall().Now().Add(endWriteTimeout))
	if f.endErr != nil {
		c.SendError(wire.ErrorMsg{Code: wire.ErrCodeProtocol, Msg: f.endErr.Error()})
	} else {
		c.SendClose(f.endClose)
	}
	c.Close()
}

// wireSource adapts a feed's ingest queue to the FrameSource contract,
// recycling frame buffers through the feed's pool (the previous frame
// returns to the pool on the next Next, exactly the FrameSource reuse
// contract).
type wireSource struct {
	feed *wireFeed
	info SourceInfo
	prev *Frame
	gap  bool
}

// Info implements FrameSource.
func (s *wireSource) Info() SourceInfo { return s.info }

// Next implements FrameSource.
func (s *wireSource) Next(ctx context.Context) (*Frame, error) {
	if s.prev != nil {
		s.feed.putBuf(s.prev)
		s.prev = nil
	}
	it, err := s.feed.queue.Pop(ctx)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, err
	}
	s.prev = it.F
	s.gap = it.Discont
	return it.F, nil
}

// TakeGap implements gapSource: the session forces an I-frame when the
// delivered frame followed a hole.
func (s *wireSource) TakeGap() bool {
	g := s.gap
	s.gap = false
	return g
}

// hubIngestTarget admits wire feeds onto a Hub. The listener owns the
// sink and archives finished streams into its own EdgeStore.
type hubIngestTarget struct{ h *Hub }

func (t hubIngestTarget) addIngestFeed(name string, src FrameSource, opts []SessionOption) (*Session, string, *container.Buffer, error) {
	sink := &container.Buffer{}
	opts = append(opts[:len(opts):len(opts)], WithSink(sink))
	sess, err := t.h.Add(name, src, opts...)
	if err != nil {
		return nil, "", nil, err
	}
	return sess, "", sink, nil
}

func (t hubIngestTarget) archiveStore(feed string) (*EdgeStoreDB, bool) {
	st := t.h.ingest.Store()
	return st, slices.Contains(st.Cameras(), feed)
}

func (t hubIngestTarget) registry() *telemetry.Registry { return t.h.own.reg }

// clusterIngestTarget admits wire feeds onto a Cluster; the cluster owns
// sinks and archives per site, so the listener archives nothing itself.
type clusterIngestTarget struct{ c *Cluster }

func (t clusterIngestTarget) addIngestFeed(name string, src FrameSource, opts []SessionOption) (*Session, string, *container.Buffer, error) {
	sess, site, err := t.c.AddFeed(name, src, opts...)
	if err != nil {
		return nil, "", nil, err
	}
	return sess, site, nil, nil
}

func (t clusterIngestTarget) archiveStore(feed string) (*EdgeStoreDB, bool) {
	if s := t.c.siteStoring(feed); s != nil {
		return s.edge, true
	}
	return nil, false
}

func (t clusterIngestTarget) registry() *telemetry.Registry { return t.c.reg }
