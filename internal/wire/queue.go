package wire

import (
	"context"
	"errors"
	"io"
	"sync"

	"sieve/internal/frame"
)

// ErrQueueClosed is returned by Queue.Push after Close.
var ErrQueueClosed = errors.New("wire: ingest queue closed")

// Item is one accepted frame in flight between the connection reader
// and the encoding session.
type Item struct {
	// F is the decoded raw frame.
	F *frame.YUV
	// Index is the client's source frame index.
	Index int64
	// Discont marks that one or more frames were lost between the
	// previous delivered item and this one (reconnect gap, shed or
	// evicted frames). The consumer must force the encoder to emit an
	// I-frame for a discontinuous frame — a P-frame would predict from a
	// reference the decoder of the stored stream never saw.
	Discont bool
}

// Queue is the bounded per-feed ingest buffer between a connection
// reader (producer) and a Session (consumer). It is the enforcement
// point for the overload policies: Push blocks (backpressure), TryPush
// rejects when full (reject-new), and EvictAll clears pending frames
// (drop-oldest-GOP). Close ends the stream; Pop then drains what
// remains and reports io.EOF (or the close error).
type Queue struct {
	mu       sync.Mutex
	items    []Item
	capacity int
	closed   bool
	err      error
	notEmpty chan struct{} // 1-buffered wakeup for Pop
	notFull  chan struct{} // 1-buffered wakeup for Push
}

// NewQueue returns a queue holding at most capacity items (minimum 1).
func NewQueue(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue{
		capacity: capacity,
		notEmpty: make(chan struct{}, 1),
		notFull:  make(chan struct{}, 1),
	}
}

func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// Push appends one item, blocking while the queue is full — the
// backpressure policy: the blocked reader stops consuming the socket
// and the peer's writes stall in turn. Returns ErrQueueClosed after
// Close, or the context error on cancellation.
func (q *Queue) Push(ctx context.Context, it Item) error {
	for {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			signal(q.notFull) // wake the next blocked producer to see it too
			return ErrQueueClosed
		}
		if len(q.items) < q.capacity {
			q.items = append(q.items, it)
			q.mu.Unlock()
			signal(q.notEmpty)
			return nil
		}
		q.mu.Unlock()
		select {
		case <-q.notFull:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// TryPush appends one item if there is room, reporting whether it was
// accepted. It returns ErrQueueClosed after Close.
func (q *Queue) TryPush(it Item) (bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false, ErrQueueClosed
	}
	if len(q.items) >= q.capacity {
		return false, nil
	}
	q.items = append(q.items, it)
	signal(q.notEmpty)
	return true, nil
}

// EvictAll removes and returns every queued item (newest-accepted
// frames that have not reached the encoder yet). The caller marks the
// next accepted frame discontinuous.
func (q *Queue) EvictAll() []Item {
	q.mu.Lock()
	defer q.mu.Unlock()
	evicted := q.items
	q.items = nil
	if len(evicted) > 0 {
		signal(q.notFull)
	}
	return evicted
}

// Len reports the number of queued items.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Close ends the stream: queued items still drain through Pop, after
// which Pop returns err, or io.EOF when err is nil. Idempotent; only
// the first call's error counts.
func (q *Queue) Close(err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.err = err
	signal(q.notEmpty)
	signal(q.notFull)
}

// Pop removes the oldest item, blocking until one is available or the
// queue is closed and drained (then io.EOF or the Close error).
func (q *Queue) Pop(ctx context.Context) (Item, error) {
	for {
		q.mu.Lock()
		if len(q.items) > 0 {
			it := q.items[0]
			q.items = q.items[1:]
			q.mu.Unlock()
			signal(q.notFull)
			signal(q.notEmpty) // more items may remain for the next Pop
			return it, nil
		}
		if q.closed {
			err := q.err
			q.mu.Unlock()
			if err == nil {
				err = io.EOF
			}
			return Item{}, err
		}
		q.mu.Unlock()
		select {
		case <-q.notEmpty:
		case <-ctx.Done():
			return Item{}, ctx.Err()
		}
	}
}
