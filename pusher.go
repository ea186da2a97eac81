package sieve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"sieve/internal/retry"
	"sieve/internal/telemetry"
	"sieve/internal/wire"
)

// PusherOption configures a Pusher.
type PusherOption func(*pusherConfig)

type pusherConfig struct {
	name       string
	params     EncoderParams
	haveParams bool
	backoff    retry.Backoff
	clock      Clock
}

// WithPusherName overrides the feed name advertised in HELLO (default:
// the source's Info().Name).
func WithPusherName(name string) PusherOption {
	return func(c *pusherConfig) { c.name = name }
}

// WithPusherEncoding advertises encoder parameters in HELLO (GOP,
// MinGOP, scenecut, quality — geometry always comes from the source).
// Without it the pusher advertises the paper's defaults for the source's
// geometry. The server may still override both with WithIngestSession.
func WithPusherEncoding(p EncoderParams) PusherOption {
	return func(c *pusherConfig) { c.params, c.haveParams = p, true }
}

// WithPusherBackoff tunes RunRetry's reconnect schedule: the delay before
// the first retry, the per-retry cap, and how many consecutive attempts
// without progress are allowed before giving up (defaults: 50ms, 1s, 5).
// The schedule is deterministic — exponential doubling, no jitter — so a
// scripted flaky transport reconnects at the same points every run.
func WithPusherBackoff(base, max time.Duration, maxAttempts int) PusherOption {
	return func(c *pusherConfig) {
		c.backoff = retry.Backoff{Base: base, Max: max, MaxAttempts: maxAttempts}
	}
}

// WithPusherClock injects the clock RunRetry sleeps its backoff delays on
// (default: the wall clock). Inject a VirtualClock for instant,
// deterministic reconnect tests.
func WithPusherClock(clk Clock) PusherOption {
	return func(c *pusherConfig) { c.clock = clk }
}

// PusherStats are a Pusher's client-side counters, cumulative across
// reconnects.
type PusherStats struct {
	// FramesSent / BytesSent count FRAME messages written (raw pixel
	// bytes, excluding framing overhead).
	FramesSent int64
	BytesSent  int64
	// Acks counts ACK messages received; LastAckedI is the highest
	// I-frame index the server acked (-1 if none) — the resume token.
	Acks       int64
	LastAckedI int64
	// Shed / Evicted count frames the server reported dropping via DRAIN
	// under the RejectNew / DropOldestGOP policies.
	Shed    int64
	Evicted int64
	// Reconnects counts successful RESUME handshakes.
	Reconnects int
	// Attempts counts connections made by RunRetry (dial + handshake +
	// stream), including the first and any that failed before the
	// handshake.
	Attempts int
	// CloseReason names the server's terminal CLOSE ("" until the server
	// finalises the feed): END_OF_STREAM, QUOTA_FRAMES, QUOTA_BYTES or
	// SHUTDOWN.
	CloseReason string
}

// ErrPusherDone is returned by Run once the server has finalised the
// feed's stream: there is nothing left to push.
var ErrPusherDone = errors.New("sieve: pusher: feed already finalised by server")

// ErrRetryExhausted matches (errors.Is) the error RunRetry returns when
// the reconnect budget is spent without progress.
var ErrRetryExhausted = retry.ErrAttemptsExhausted

// Pusher is the client side of the SVWP ingest plane: it streams a
// FrameSource's raw frames to an IngestListener over any net.Conn. The
// first Run sends HELLO; if Run returns with a connection error, calling
// Run again with a fresh connection sends RESUME with the last acked
// I-frame as the token and continues from the server's authoritative
// ResumeFrom cursor — seeking the source back if it supports
// Seek(int) error (SynthSource and ReplaySource do), or declaring the
// gap by frame index if it cannot rewind (a live camera), which the
// server heals by forcing the next stored frame to be an I-frame.
//
// Run returns nil when the server finalises the feed (end of stream or
// quota); inspect Stats().CloseReason to tell which. A Pusher drives one
// feed and is not safe for concurrent Run calls.
type Pusher struct {
	src FrameSource
	cfg pusherConfig

	// Counters are free-standing telemetry instruments (atomic, so Stats
	// is safe beside Run); PusherStats is the snapshot view over them.
	framesSent telemetry.Counter
	bytesSent  telemetry.Counter
	acks       telemetry.Counter
	shed       telemetry.Counter
	evicted    telemetry.Counter
	reconnects telemetry.Counter
	attempts   telemetry.Counter
	lastAckedI telemetry.Gauge // high-water mark, -1 until the first I-ack

	mu          sync.Mutex
	closeReason string
	// pos is the source cursor: frames consumed from src, advanced when a
	// frame is pulled — not when its send succeeds. A frame pulled but lost
	// to a failed send leaves pos ahead of the server's cursor, so the next
	// Run either seeks the source back to re-produce it or, if the source
	// cannot rewind, declares the gap instead of silently relabelling the
	// following frame.
	pos  int64
	live bool // a WELCOME has been received; reconnects RESUME
	done bool // server finalised the feed
}

// NewPusher wraps a frame source as an SVWP client.
func NewPusher(src FrameSource, opts ...PusherOption) *Pusher {
	p := &Pusher{src: src}
	for _, opt := range opts {
		opt(&p.cfg)
	}
	p.lastAckedI.Set(-1)
	return p
}

// Stats returns the client-side counters; safe to call concurrently
// with Run. PusherStats is a view over the pusher's telemetry
// instruments: each counter is read atomically, the snapshot as a whole
// is not a frozen cross-counter cut.
func (p *Pusher) Stats() PusherStats {
	p.mu.Lock()
	reason := p.closeReason
	p.mu.Unlock()
	return PusherStats{
		FramesSent:  p.framesSent.Value(),
		BytesSent:   p.bytesSent.Value(),
		Acks:        p.acks.Value(),
		LastAckedI:  p.lastAckedI.Value(),
		Shed:        p.shed.Value(),
		Evicted:     p.evicted.Value(),
		Reconnects:  int(p.reconnects.Value()),
		Attempts:    int(p.attempts.Value()),
		CloseReason: reason,
	}
}

// Finished reports whether the server has finalised the feed's stream.
func (p *Pusher) Finished() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.done
}

func (p *Pusher) feedName() string {
	if p.cfg.name != "" {
		return p.cfg.name
	}
	return p.src.Info().Name
}

func (p *Pusher) hello() wire.Hello {
	info := p.src.Info()
	params := p.cfg.params
	if !p.cfg.haveParams {
		params = DefaultParams(info.Width, info.Height)
	}
	return wire.Hello{
		Feed: p.feedName(), Width: info.Width, Height: info.Height, FPS: info.FPS,
		Quality: params.Quality, GOP: params.GOPSize, MinGOP: params.MinGOP,
		Scenecut: params.Scenecut,
	}
}

// Run performs the handshake on nc and streams frames until the source
// ends or the server finalises the feed (both return nil), the context
// is cancelled, or the connection fails — in which case the error is
// retryable: dial again and call Run with the new connection to resume.
// Run always closes nc before returning.
func (p *Pusher) Run(ctx context.Context, nc net.Conn) error {
	if ctx == nil {
		ctx = context.Background()
	}
	defer nc.Close()
	p.mu.Lock()
	if p.done {
		p.mu.Unlock()
		return ErrPusherDone
	}
	resume, token := p.live, p.lastAckedI.Value()
	p.mu.Unlock()

	c := wire.NewConn(nc)
	if resume {
		if err := c.SendResume(wire.Resume{Feed: p.feedName(), Token: token}); err != nil {
			return fmt.Errorf("sieve: pusher: resume: %w", err)
		}
	} else {
		if err := c.SendHello(p.hello()); err != nil {
			return fmt.Errorf("sieve: pusher: hello: %w", err)
		}
	}
	w, err := p.awaitWelcome(c)
	if err != nil {
		return err
	}
	if err := p.position(w.ResumeFrom); err != nil {
		return err
	}
	p.mu.Lock()
	if p.live {
		p.reconnects.Inc()
	}
	p.live = true
	p.mu.Unlock()

	// One reader goroutine owns every server→client message; it delivers
	// exactly one value on readErr: nil for a terminal server CLOSE, the
	// *wire.ErrorMsg for a server rejection, or the transport error.
	readErr := make(chan error, 1)
	go func() { readErr <- p.readLoop(c) }()

	info := p.src.Info()
	frameBytes := int64(wire.FrameBytes(info.Width, info.Height))
	for {
		select {
		case rerr := <-readErr:
			return p.terminal(rerr)
		default:
		}
		f, err := p.src.Next(ctx)
		if errors.Is(err, io.EOF) {
			p.mu.Lock()
			sent := p.pos
			p.mu.Unlock()
			if err := c.SendClose(wire.Close{Reason: wire.CloseEndOfStream, Frames: sent}); err != nil {
				return p.sendFailed("close", err, readErr)
			}
			select {
			case rerr := <-readErr:
				return p.terminal(rerr)
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if err != nil {
			return err
		}
		p.mu.Lock()
		idx := p.pos
		p.pos = idx + 1 // the source has produced frame idx, delivered or not
		p.mu.Unlock()
		if err := c.SendFrame(idx, f); err != nil {
			return p.sendFailed(fmt.Sprintf("frame %d", idx), err, readErr)
		}
		p.framesSent.Inc()
		p.bytesSent.Add(frameBytes)
	}
}

// RunRetry dials and runs until the server finalises the feed,
// reconnecting through the capped exponential-backoff schedule when the
// transport fails. Progress resets the schedule: a connection that
// delivered new frames, acks or a RESUME handshake drops the streak back
// to the base delay, so only MaxAttempts *consecutive fruitless* attempts
// exhaust the budget (an error matching ErrRetryExhausted, wrapped with
// the last transport error). A server rejection (wire ERROR) is terminal
// and never retried;
// dial is called once per attempt and must return a fresh connection.
func (p *Pusher) RunRetry(ctx context.Context, dial func(context.Context) (net.Conn, error)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if dial == nil {
		return errors.New("sieve: pusher: RunRetry needs a dial function")
	}
	clk := p.cfg.clock
	if clk == nil {
		clk = RealClock()
	}
	b := p.cfg.backoff
	if b.MaxAttempts == 0 {
		b = retry.Backoff{Base: 50 * time.Millisecond, Max: time.Second, MaxAttempts: 5}
	}
	streak := 0 // consecutive attempts without progress
	var last error
	for {
		if streak >= b.MaxAttempts {
			return fmt.Errorf("sieve: pusher: reconnect budget spent (%d attempts without progress): %w",
				b.MaxAttempts, errors.Join(retry.ErrAttemptsExhausted, last))
		}
		if streak > 0 {
			if err := clk.Sleep(ctx, b.Delay(streak)); err != nil {
				return errors.Join(err, last)
			}
		}
		p.attempts.Inc()
		before := p.progress()
		nc, err := dial(ctx)
		if err == nil {
			err = p.Run(ctx, nc)
		}
		if err == nil || errors.Is(err, ErrPusherDone) {
			return nil
		}
		var em *wire.ErrorMsg
		if errors.As(err, &em) {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
		if p.progress() > before {
			streak = 1
		} else {
			streak++
		}
		last = err
	}
}

// progress is the monotonic progress measure RunRetry uses to decide
// whether a failed connection still moved the stream forward. Each counter
// only grows, so the sum is monotonic even read without a lock.
func (p *Pusher) progress() int64 {
	return p.framesSent.Value() + p.acks.Value() + p.reconnects.Value()
}

// awaitWelcome reads the handshake reply: WELCOME or a terminal ERROR.
func (p *Pusher) awaitWelcome(c *wire.Conn) (wire.Welcome, error) {
	t, payload, err := c.ReadMessage()
	if err != nil {
		return wire.Welcome{}, fmt.Errorf("sieve: pusher: awaiting welcome: %w", err)
	}
	switch t {
	case wire.MsgWelcome:
		w, err := wire.ParseWelcome(payload)
		if err != nil {
			return wire.Welcome{}, fmt.Errorf("sieve: pusher: %w", err)
		}
		return w, nil
	case wire.MsgError:
		e, perr := wire.ParseError(payload)
		if perr != nil {
			return wire.Welcome{}, fmt.Errorf("sieve: pusher: %w", perr)
		}
		return wire.Welcome{}, &e
	default:
		return wire.Welcome{}, fmt.Errorf("sieve: pusher: unexpected %s during handshake", t)
	}
}

// position aligns the source with the server's authoritative cursor.
func (p *Pusher) position(resumeFrom int64) error {
	p.mu.Lock()
	pos := p.pos
	p.mu.Unlock()
	if resumeFrom == pos {
		return nil
	}
	if sk, ok := p.src.(interface{ Seek(int) error }); ok {
		if err := sk.Seek(int(resumeFrom)); err != nil {
			return fmt.Errorf("sieve: pusher: seeking to server cursor: %w", err)
		}
		p.mu.Lock()
		p.pos = resumeFrom
		p.mu.Unlock()
		return nil
	}
	if resumeFrom > pos {
		return fmt.Errorf("sieve: pusher: server expects frame %d but unseekable source is at %d", resumeFrom, pos)
	}
	// Unseekable source past the server's cursor: the frames in between
	// are gone. Continue at pos — the index jump declares the gap, which
	// the server records as Skipped and heals with a forced I-frame.
	return nil
}

// readLoop processes server→client messages until a terminal one.
func (p *Pusher) readLoop(c *wire.Conn) error {
	for {
		t, payload, err := c.ReadMessage()
		if err != nil {
			return err
		}
		switch t {
		case wire.MsgAck:
			a, err := wire.ParseAck(payload)
			if err != nil {
				return err
			}
			p.acks.Inc()
			if FrameType(a.Type) == FrameI {
				p.lastAckedI.Max(a.Frame)
			}
		case wire.MsgDrain:
			d, err := wire.ParseDrain(payload)
			if err != nil {
				return err
			}
			switch d.Code {
			case wire.DrainShed:
				p.shed.Add(int64(d.Count))
			case wire.DrainEvicted:
				p.evicted.Add(int64(d.Count))
			}
		case wire.MsgClose:
			cl, err := wire.ParseClose(payload)
			if err != nil {
				return err
			}
			p.mu.Lock()
			p.done = true
			p.closeReason = cl.Reason.String()
			p.mu.Unlock()
			return nil
		case wire.MsgError:
			e, perr := wire.ParseError(payload)
			if perr != nil {
				return perr
			}
			return &e
		default:
			return fmt.Errorf("sieve: pusher: unexpected %s from server", t)
		}
	}
}

// terminal maps the reader's outcome to Run's return: a server CLOSE is
// success, a server ERROR or transport failure propagates (the latter
// retryable via a fresh Run).
func (p *Pusher) terminal(rerr error) error {
	if rerr == nil {
		return nil
	}
	var em *wire.ErrorMsg
	if errors.As(rerr, &em) {
		return em
	}
	return fmt.Errorf("sieve: pusher: connection lost: %w", rerr)
}

// sendFailed resolves a failed write: if the reader meanwhile saw the
// server's terminal CLOSE (a quota close races the client's writes), the
// run still succeeded; otherwise the write error propagates. The
// connection is already broken, so the reader returns promptly.
func (p *Pusher) sendFailed(op string, werr error, readErr <-chan error) error {
	rerr := <-readErr
	if rerr == nil {
		return nil
	}
	var em *wire.ErrorMsg
	if errors.As(rerr, &em) {
		return em
	}
	return fmt.Errorf("sieve: pusher: send %s: %w", op, werr)
}
