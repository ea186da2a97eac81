package nn

import "fmt"

// Batch is a dense batch of N equally-shaped CHW tensors stored
// contiguously: item i occupies Data[i*C*H*W : (i+1)*C*H*W], itself in
// channel-major layout. Batching exists to amortise per-invocation costs of
// the forward pass (buffer reuse, weight locality, scheduler overhead)
// across frames from many feeds; the per-item arithmetic is identical to
// the single-tensor path, so batched results match Forward element for
// element.
type Batch struct {
	Data       []float32
	N, C, H, W int
}

// NewBatch allocates a zeroed batch of n c×h×w items.
func NewBatch(n, c, h, w int) *Batch {
	b := &Batch{}
	b.Reshape(n, c, h, w)
	return b
}

// Reshape resizes the batch to n items of c×h×w, reusing Data's capacity
// when it suffices (the allocation-free steady state). Contents are
// undefined after a reshape.
func (b *Batch) Reshape(n, c, h, w int) {
	b.N, b.C, b.H, b.W = n, c, h, w
	need := n * c * h * w
	if cap(b.Data) < need {
		b.Data = make([]float32, need)
		return
	}
	b.Data = b.Data[:need]
}

// ItemLen returns the element count of one item.
func (b *Batch) ItemLen() int { return b.C * b.H * b.W }

// Item returns item i's data, aliasing the batch storage.
func (b *Batch) Item(i int) []float32 {
	n := b.ItemLen()
	return b.Data[i*n : (i+1)*n]
}

// ItemTensor returns a Tensor header over item i (shared storage).
func (b *Batch) ItemTensor(i int) Tensor {
	return Tensor{Data: b.Item(i), C: b.C, H: b.H, W: b.W}
}

// BatchScratch holds the buffers ForwardBatchRange works in: two one-item
// activation buffers it ping-pongs between from layer to layer, and the
// batch the final activations of every item collect in. One scratch serves
// any number of sequential ForwardBatch calls with zero steady-state
// allocations; it is not safe for concurrent use (the inference plane
// serialises batches, so one scratch per plane suffices).
type BatchScratch struct {
	a, b Batch
	out  Batch
	// first and last are one-item views of the caller's input and of out,
	// kept here so handing them to a Layer does not allocate.
	first, last Batch
}

// ForwardBatch runs the full network over every item of in and returns the
// final batch (which aliases s — valid until the next ForwardBatch with the
// same scratch). in must not alias s. Per item, the output is bit-identical
// to Forward on that item: layers process items independently with the same
// kernels.
func (n *Network) ForwardBatch(in *Batch, s *BatchScratch) *Batch {
	if in.C != n.Input.C {
		panic(fmt.Sprintf("nn: ForwardBatch input has %d channels, want %d", in.C, n.Input.C))
	}
	return n.ForwardBatchRange(in, s, 0, len(n.Layers))
}

// ForwardBatchRange runs layers [from, to) over every item of in — the
// batched unit of work one side of a partition cut executes. in is the
// input to layer `from` (the raw network input when from == 0, an
// intermediate activation batch otherwise, e.g. one decoded from an
// activation wire record) and must not alias s. The returned batch aliases
// s — or is in itself when the range is empty — and chaining
// ForwardBatchRange(·, 0, k) through a bit-exact transport into
// ForwardBatchRange(·, k, N) is element-identical to one full ForwardBatch:
// the same layer kernels run in the same order on the same values.
//
// The traversal is item by item, each item through the whole range before
// the next starts, so one item's activations (73 KB after conv1 at 96×96)
// stay in cache from the layer that writes them to the layer that reads
// them, and the working set does not grow with the batch. Layer by layer
// over the whole batch streams N times that through the cache per layer,
// and where it no longer fits a frame costs more at batch 16 than at 1.
func (n *Network) ForwardBatchRange(in *Batch, s *BatchScratch, from, to int) *Batch {
	from, to = max(from, 0), min(to, len(n.Layers))
	if from >= to {
		return in
	}
	inShape := Shape{C: in.C, H: in.H, W: in.W}
	outShape := inShape
	for _, l := range n.Layers[from:to] {
		outShape = l.OutShape(outShape)
	}
	s.out.Reshape(in.N, outShape.C, outShape.H, outShape.W)
	for item := 0; item < in.N; item++ {
		s.first = Batch{Data: in.Item(item), N: 1, C: in.C, H: in.H, W: in.W}
		s.last = Batch{Data: s.out.Item(item), N: 1, C: outShape.C, H: outShape.H, W: outShape.W}
		cur, shape := &s.first, inShape
		for i, l := range n.Layers[from:to] {
			next := &s.a
			if cur == next {
				next = &s.b
			}
			shape = l.OutShape(shape)
			if i == to-from-1 {
				next = &s.last
			} else {
				next.Reshape(1, shape.C, shape.H, shape.W)
			}
			l.ForwardBatch(cur, next)
			cur = next
		}
	}
	return &s.out
}
