package partition

import "fmt"

// Options carries the per-scheme tunables. Zero values select the defaults
// used throughout the paper's evaluation.
type Options struct {
	// NodeCapacity is the Append scheme's per-node fill target in bytes.
	// Required for "append".
	NodeCapacity int64
	// VirtualNodes is the Consistent Hash ring replica count
	// (DefaultVirtualNodes when 0).
	VirtualNodes int
	// UniformHeight is the Uniform Range tree height h
	// (DefaultUniformHeight when 0).
	UniformHeight int
	// MidpointSplit switches the K-d Tree to blind geometric-midpoint
	// splits — the skew-awareness ablation.
	MidpointSplit bool
}

// Canonical scheme keys accepted by New, in the order the paper's figures
// list them.
const (
	KindAppend     = "append"
	KindConsistent = "consistent"
	KindExtendible = "extendible"
	KindHilbert    = "hilbert"
	KindQuadtree   = "quadtree"
	KindKdTree     = "kdtree"
	KindRoundRobin = "roundrobin"
	KindUniform    = "uniform"
)

// Kinds returns all scheme keys in figure order.
func Kinds() []string {
	return []string{
		KindAppend, KindConsistent, KindExtendible, KindHilbert,
		KindQuadtree, KindKdTree, KindRoundRobin, KindUniform,
	}
}

// New constructs the named scheme over the initial nodes. geom is required
// by the spatial schemes (hilbert, quadtree, kdtree, uniform) and ignored
// by the rest.
func New(kind string, initial []NodeID, geom Geometry, opts Options) (Partitioner, error) {
	if len(initial) == 0 {
		return nil, fmt.Errorf("partition: need at least one initial node")
	}
	switch kind {
	case KindAppend:
		if opts.NodeCapacity <= 0 {
			return nil, fmt.Errorf("partition: append requires Options.NodeCapacity > 0")
		}
		return NewAppend(initial, opts.NodeCapacity), nil
	case KindConsistent:
		return NewConsistentHash(initial, opts.VirtualNodes), nil
	case KindExtendible:
		return NewExtendibleHash(initial), nil
	case KindHilbert:
		return NewHilbertCurve(initial, geom)
	case KindQuadtree:
		return NewIncrQuadtree(initial, geom)
	case KindKdTree:
		return NewKdTree(initial, geom, opts.MidpointSplit)
	case KindRoundRobin:
		return NewRoundRobin(initial, geom)
	case KindUniform:
		return NewUniformRange(initial, geom, opts.UniformHeight)
	default:
		return nil, fmt.Errorf("partition: unknown scheme %q (want one of %v)", kind, Kinds())
	}
}
