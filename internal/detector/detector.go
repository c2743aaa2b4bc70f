// Package detector is the coordinator-side failure detector: it watches the
// sequence-numbered heartbeats nodes emit over the transport's Announce path
// and turns their inter-arrival timing into an explicit liveness lifecycle,
//
//	Healthy → Suspect → Down
//	   ↑         │        │
//	   └─────────┴────────┘  (a fresh heartbeat readmits from either state)
//
// The detector is deliberately passive: it holds no cluster locks, calls no
// cluster methods, and only reports Transitions. A supervisor (see
// internal/supervisor) subscribes to those verdicts and decides what to do
// about them — the separation keeps suspicion testable with a fake clock and
// keeps recovery policy (retries, quarantine, flap damping) out of the
// timing math.
//
// Suspicion is timeout-based with an adaptive option: each node's observed
// inter-arrival time is tracked as an EWMA, and the suspect/down thresholds
// are the greater of a fixed floor (SuspectAfter/DownAfter) and a multiple
// of that EWMA (SuspectIntervals/DownIntervals). With the multipliers at
// zero the detector is a pure fixed-timeout detector; with them set it
// behaves like a coarse phi-accrual detector — a node whose heartbeats
// naturally arrive slowly (loaded, distant) earns proportionally more
// patience before suspicion, which is what keeps false positives near zero
// under jitter without making detection of a truly dead node slower than
// DownAfter requires.
package detector

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/partition"
)

// State is a watched node's liveness verdict.
type State int32

const (
	// Healthy: heartbeats are arriving within threshold.
	Healthy State = iota
	// Suspect: heartbeats have been silent past the suspect threshold; the
	// node may be dead or the control path may be lossy. No action yet.
	Suspect
	// Down: silence crossed the down threshold; the detector's verdict is
	// that the node is dead and recovery should begin.
	Down
)

func (s State) String() string {
	switch s {
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	}
	return "healthy"
}

// Options tune a Detector. The zero value is usable: 100ms expected
// interval, fixed thresholds at 4x/10x the interval, pure-timeout mode,
// system clock.
type Options struct {
	// ExpectedInterval is the heartbeat period nodes are configured to emit
	// at; it seeds the inter-arrival EWMA and derives the default
	// thresholds. Default 100ms.
	ExpectedInterval time.Duration
	// SuspectAfter is the fixed floor of silence before a Healthy node
	// becomes Suspect. Default 4 x ExpectedInterval.
	SuspectAfter time.Duration
	// DownAfter is the fixed floor of silence before a node is declared
	// Down. Default 10 x ExpectedInterval. Must exceed SuspectAfter.
	DownAfter time.Duration
	// SuspectIntervals/DownIntervals, when > 0, make the thresholds
	// adaptive: the effective threshold is max(fixed floor, multiplier x
	// observed EWMA inter-arrival). 0 keeps pure fixed timeouts.
	SuspectIntervals float64
	DownIntervals    float64
	// Clock supplies time; nil selects SystemClock. Tests inject a
	// ManualClock for fully deterministic threshold crossings.
	Clock Clock
}

func (o Options) withDefaults() (Options, error) {
	if o.ExpectedInterval == 0 {
		o.ExpectedInterval = 100 * time.Millisecond
	}
	if o.ExpectedInterval <= 0 {
		return o, fmt.Errorf("detector: ExpectedInterval must be positive, got %v", o.ExpectedInterval)
	}
	if o.SuspectAfter == 0 {
		o.SuspectAfter = 4 * o.ExpectedInterval
	}
	if o.DownAfter == 0 {
		o.DownAfter = 10 * o.ExpectedInterval
	}
	if o.SuspectAfter <= 0 || o.DownAfter <= 0 {
		return o, fmt.Errorf("detector: thresholds must be positive (suspect %v, down %v)", o.SuspectAfter, o.DownAfter)
	}
	if o.DownAfter <= o.SuspectAfter {
		return o, fmt.Errorf("detector: DownAfter (%v) must exceed SuspectAfter (%v)", o.DownAfter, o.SuspectAfter)
	}
	if o.SuspectIntervals < 0 || o.DownIntervals < 0 {
		return o, fmt.Errorf("detector: interval multipliers must be >= 0")
	}
	if o.Clock == nil {
		o.Clock = SystemClock{}
	}
	return o, nil
}

// Transition is one lifecycle edge the detector observed.
type Transition struct {
	Node partition.NodeID
	From State
	To   State
	// At is the detector-clock time of the verdict.
	At time.Time
	// Silence is how long the node had been quiet when the verdict was
	// reached (zero for recoveries — a heartbeat just arrived).
	Silence time.Duration
}

func (t Transition) String() string {
	return fmt.Sprintf("node %d: %s → %s (silent %v)", t.Node, t.From, t.To, t.Silence)
}

// track is the per-node liveness record.
type track struct {
	state    State
	lastSeq  uint64
	lastBeat time.Time
	// ewma is the smoothed inter-arrival time, seeded with
	// ExpectedInterval so the first few beats don't whipsaw the adaptive
	// thresholds.
	ewma  time.Duration
	beats uint64 // heartbeats accepted
	stale uint64 // heartbeats rejected as replayed/regressed Seq
}

// ewmaAlpha is the smoothing weight for inter-arrival updates.
const ewmaAlpha = 0.2

// Detector turns per-node heartbeat observations into liveness verdicts.
// Safe for concurrent use: Observe is called from transport handler
// callbacks while Tick runs on a supervisor's poll loop.
type Detector struct {
	opts Options

	mu    sync.Mutex
	nodes map[partition.NodeID]*track
}

// New builds a detector. Watch nodes (or let Observe auto-watch them), feed
// it heartbeats via Observe, and poll Tick for silence-driven verdicts.
func New(opts Options) (*Detector, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Detector{opts: o, nodes: make(map[partition.NodeID]*track)}, nil
}

// Options returns the detector's resolved tuning.
func (d *Detector) Options() Options { return d.opts }

// Watch starts tracking a node, granting it a full grace period from now —
// a just-watched node is Healthy and cannot be suspected before
// SuspectAfter elapses. Watching an already-watched node is a no-op.
func (d *Detector) Watch(id partition.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.nodes[id]; ok {
		return
	}
	d.nodes[id] = &track{
		state:    Healthy,
		lastBeat: d.opts.Clock.Now(),
		ewma:     d.opts.ExpectedInterval,
	}
}

// Observe feeds one heartbeat. A repeated or regressed sequence number is a
// stale delivery — counted but not treated as a sign of life. Unknown nodes
// are auto-watched (a scale-out's new node announces before anyone told the
// detector about it). The returned Transition is non-nil only when the
// heartbeat readmits a Suspect or Down node to Healthy.
func (d *Detector) Observe(id partition.NodeID, seq uint64) *Transition {
	now := d.opts.Clock.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	tr, ok := d.nodes[id]
	if !ok {
		tr = &track{state: Healthy, lastBeat: now, ewma: d.opts.ExpectedInterval}
		d.nodes[id] = tr
		tr.lastSeq = seq
		tr.beats = 1
		return nil
	}
	if tr.beats > 0 && seq <= tr.lastSeq {
		tr.stale++
		return nil
	}
	if tr.beats > 0 {
		gap := now.Sub(tr.lastBeat)
		tr.ewma = time.Duration((1-ewmaAlpha)*float64(tr.ewma) + ewmaAlpha*float64(gap))
	}
	tr.lastSeq = seq
	tr.lastBeat = now
	tr.beats++
	if tr.state == Healthy {
		return nil
	}
	from := tr.state
	tr.state = Healthy
	return &Transition{Node: id, From: from, To: Healthy, At: now}
}

// thresholds returns the effective suspect/down silences for a track.
func (d *Detector) thresholds(tr *track) (suspect, down time.Duration) {
	suspect, down = d.opts.SuspectAfter, d.opts.DownAfter
	if d.opts.SuspectIntervals > 0 {
		if adaptive := time.Duration(d.opts.SuspectIntervals * float64(tr.ewma)); adaptive > suspect {
			suspect = adaptive
		}
	}
	if d.opts.DownIntervals > 0 {
		if adaptive := time.Duration(d.opts.DownIntervals * float64(tr.ewma)); adaptive > down {
			down = adaptive
		}
	}
	if down <= suspect {
		down = suspect + 1
	}
	return suspect, down
}

// Tick evaluates silence against the thresholds and returns the transitions
// it caused, in ascending node order for determinism. A Healthy node past
// the suspect threshold becomes Suspect; any node past the down threshold
// becomes Down. Call it on a poll loop (or after advancing a ManualClock).
func (d *Detector) Tick() []Transition {
	now := d.opts.Clock.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]partition.NodeID, 0, len(d.nodes))
	for id := range d.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []Transition
	for _, id := range ids {
		tr := d.nodes[id]
		if tr.state == Down {
			continue
		}
		silence := now.Sub(tr.lastBeat)
		suspect, down := d.thresholds(tr)
		switch {
		case silence >= down:
			out = append(out, Transition{Node: id, From: tr.state, To: Down, At: now, Silence: silence})
			tr.state = Down
		case silence >= suspect && tr.state == Healthy:
			out = append(out, Transition{Node: id, From: Healthy, To: Suspect, At: now, Silence: silence})
			tr.state = Suspect
		}
	}
	return out
}

// StateOf returns a node's current verdict; false if unwatched.
func (d *Detector) StateOf(id partition.NodeID) (State, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	tr, ok := d.nodes[id]
	if !ok {
		return Healthy, false
	}
	return tr.state, true
}

// NodeStatus is a point-in-time snapshot of one tracked node.
type NodeStatus struct {
	Node     partition.NodeID
	State    State
	LastSeq  uint64
	Silence  time.Duration // now - last accepted heartbeat
	Interval time.Duration // EWMA inter-arrival
	Beats    uint64        // heartbeats accepted
	Stale    uint64        // heartbeats rejected (replayed/regressed Seq)
}

// Status snapshots every tracked node, ascending by ID.
func (d *Detector) Status() []NodeStatus {
	now := d.opts.Clock.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]NodeStatus, 0, len(d.nodes))
	for id, tr := range d.nodes {
		out = append(out, NodeStatus{
			Node:     id,
			State:    tr.state,
			LastSeq:  tr.lastSeq,
			Silence:  now.Sub(tr.lastBeat),
			Interval: tr.ewma,
			Beats:    tr.beats,
			Stale:    tr.stale,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
