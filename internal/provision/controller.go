// Package provision implements the paper's leading staircase algorithm
// (Section 5): a Proportional-Derivative control loop that decides when an
// elastic array database should scale out and by how many nodes, plus the
// two workload-specific tuners — the what-if analysis that fits the sample
// count s (Algorithm 1) and the analytical cost model that fits the
// planning horizon p (Equations 5–9).
//
// Storage units are abstract: the cluster feeds bytes, the paper speaks in
// GB; the mathematics is unit-agnostic as long as load and capacity agree.
package provision

import (
	"fmt"
	"math"
)

// Controller is the PD control loop of the leading staircase. At each
// workload cycle the database observes its storage demand (including the
// incoming insert) and asks the controller how many nodes to add.
//
// The proportional term compensates for demand already beyond capacity
// (Eq 2); the derivative term forecasts demand growth over the next P
// cycles from the last S observations (Eq 3); their sum converts to whole
// nodes by dividing by the per-node capacity and taking the ceiling (Eq 4).
type Controller struct {
	// S is the number of trailing samples the derivative is computed
	// over. Fit it with TuneS.
	S int
	// P is the planning horizon: how many future workload cycles each
	// scale-out provisions for. Fit it with TuneP.
	P int
	// NodeCapacity is c, the storage capacity of one node.
	NodeCapacity float64

	history []float64
}

// NewController validates and returns a controller.
func NewController(s, p int, nodeCapacity float64) (*Controller, error) {
	if s < 1 {
		return nil, fmt.Errorf("provision: sample count s must be >= 1, got %d", s)
	}
	if p < 1 {
		return nil, fmt.Errorf("provision: planning horizon p must be >= 1, got %d", p)
	}
	if nodeCapacity <= 0 {
		return nil, fmt.Errorf("provision: node capacity must be positive, got %v", nodeCapacity)
	}
	return &Controller{S: s, P: p, NodeCapacity: nodeCapacity}, nil
}

// Observe records the storage demand of one workload cycle, measured after
// the cycle's insert. Demand is monotone for the paper's no-overwrite
// workloads but the controller does not require it.
func (c *Controller) Observe(load float64) {
	c.history = append(c.history, load)
}

// Derivative returns Δ, the demand growth rate per cycle estimated over
// the last S observations (Eq 3). With fewer than S+1 observations it
// falls back to the longest available window; with fewer than two it is 0.
func (c *Controller) Derivative() float64 {
	n := len(c.history)
	if n < 2 {
		return 0
	}
	s := c.S
	if s > n-1 {
		s = n - 1
	}
	return (c.history[n-1] - c.history[n-1-s]) / float64(s)
}

// Plan returns k, the number of nodes to add given the current cluster
// size (Eqs 2–4). It must be called after Observe for the cycle. A return
// of 0 means the cluster is within capacity and the provisioner is done.
func (c *Controller) Plan(numNodes int) int {
	return c.PlanHeterogeneous(float64(numNodes)*c.NodeCapacity, c.NodeCapacity)
}

// PlanHeterogeneous is the §5.1 generalization to clusters whose nodes
// have individual capacities: totalCapacity is the provisioned storage
// across all current nodes, and newNodeCapacity the capacity of the nodes
// the next step would add. Plan is the homogeneous special case.
func (c *Controller) PlanHeterogeneous(totalCapacity, newNodeCapacity float64) int {
	if len(c.history) == 0 || newNodeCapacity <= 0 {
		return 0
	}
	li := c.history[len(c.history)-1]
	pi := li - totalCapacity // Eq 2, generalized
	if pi < 0 {
		return 0 // under capacity: nothing to do
	}
	delta := c.Derivative() // Eq 3
	if delta < 0 {
		delta = 0 // demand is monotone; a negative estimate is noise
	}
	k := int(math.Ceil((pi + float64(c.P)*delta) / newNodeCapacity)) // Eq 4
	if k < 1 {
		// At exactly full capacity with flat growth the ceiling can be
		// zero; the intersection of the demand and provisioned curves
		// still triggers a step in the paper's staircase.
		k = 1
	}
	return k
}
