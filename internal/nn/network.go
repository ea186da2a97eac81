package nn

// Network is a feed-forward stack of layers.
type Network struct {
	Layers []Layer
	// Input is the shape the network expects.
	Input Shape
}

// LayerStats describes one layer's cost profile for a given input shape.
type LayerStats struct {
	Index int
	Name  string
	// In and Out are the layer's input/output shapes.
	In, Out Shape
	// FLOPs is the layer's compute cost.
	FLOPs int64
	// OutBytes is the wire size of the layer's output (what crosses the
	// network if the partition cut is placed right after this layer).
	OutBytes int64
}

// Stats profiles every layer for the network's input shape.
func (n *Network) Stats() []LayerStats {
	out := make([]LayerStats, 0, len(n.Layers))
	shape := n.Input
	for i, l := range n.Layers {
		os := l.OutShape(shape)
		out = append(out, LayerStats{
			Index: i, Name: l.Name(),
			In: shape, Out: os,
			FLOPs:    l.FLOPs(shape),
			OutBytes: os.Bytes(),
		})
		shape = os
	}
	return out
}
