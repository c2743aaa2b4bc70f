// Package supervisor closes the failure loop the ROADMAP left open: it
// subscribes to the failure detector's verdicts and drives the cluster's
// existing manual recovery machinery — FailNode → PlanRecover →
// ExecuteRebalance, then RecoverNode when the node returns — automatically,
// so a killed node heals with zero operator calls.
//
//	          heartbeats stop                 heartbeats resume
//	Healthy ────────────────▶ Suspect ─────▶ Down          │
//	   ▲     (MarkNodeSuspect)    (FailNode + PlanRecover  │
//	   │                           + ExecuteRebalance)     ▼
//	   └──────────────── RecoverNode ◀──────────── quarantine wait
//	      (readmit + replica restore)      (flap damping doubles it)
//
// Policy lives here, timing math lives in internal/detector. The supervisor
// applies bounded retries with exponential backoff + deterministic jitter
// to every recovery step, treats a stale-plan rejection (cluster.ErrStalePlan,
// some other administration won the epoch race) as a plan-again signal, and
// damps flapping: a node that dies again shortly after being readmitted
// earns a doubled quarantine window before the next readmission, up to a
// cap. Every decision is recorded in a structured event log.
//
// Concurrency: heartbeats arrive on transport handler goroutines and are
// fed to the detector inside the cluster's announcement sink, which must
// not take cluster locks — so the sink only records the observation. All
// cluster calls happen on Poll, which the Start loop runs on a timer (or a
// test drives directly against a ManualClock).
package supervisor

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/detector"
	"repro/internal/partition"
	"repro/internal/transport"
)

// Options tune a Supervisor. The zero value is usable: 50ms heartbeats,
// detector defaults scaled to that, 6 attempts per recovery step with
// 25ms..2s backoff, 250ms quarantine doubling up to 16x under flapping.
type Options struct {
	// Detector tunes the failure detector. ExpectedInterval defaults to
	// HeartbeatInterval (not the detector's own 100ms default) so the
	// thresholds track the configured emission rate.
	Detector detector.Options
	// HeartbeatInterval is the node heartbeat emission period Start
	// configures. Default 50ms.
	HeartbeatInterval time.Duration
	// PollInterval is how often the Start loop calls Poll. Default:
	// HeartbeatInterval.
	PollInterval time.Duration
	// MaxAttempts bounds retries per recovery step (the fail+replan step
	// and the readmit step each get their own budget). Default 6.
	MaxAttempts int
	// BackoffBase/BackoffMax shape the exponential retry backoff:
	// base<<(attempt-1), clamped to max, ±25% jitter. Defaults 25ms / 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JitterSeed seeds the deterministic jitter source. Default 1.
	JitterSeed int64
	// Quarantine is how long a Down node must beat steadily before it is
	// readmitted. Default 250ms.
	Quarantine time.Duration
	// QuarantineMax caps the flap-damped window. Default 16x Quarantine.
	QuarantineMax time.Duration
	// FlapWindow: a node that goes Down again within this span of its
	// last readmission is flapping — its quarantine window doubles.
	// Default 10x Quarantine.
	FlapWindow time.Duration
}

func (o Options) withDefaults() Options {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 50 * time.Millisecond
	}
	if o.PollInterval <= 0 {
		o.PollInterval = o.HeartbeatInterval
	}
	if o.Detector.ExpectedInterval == 0 {
		o.Detector.ExpectedInterval = o.HeartbeatInterval
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 6
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 25 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.JitterSeed == 0 {
		o.JitterSeed = 1
	}
	if o.Quarantine <= 0 {
		o.Quarantine = 250 * time.Millisecond
	}
	if o.QuarantineMax <= 0 {
		o.QuarantineMax = 16 * o.Quarantine
	}
	if o.FlapWindow <= 0 {
		o.FlapWindow = 10 * o.Quarantine
	}
	return o
}

// EventKind classifies a supervisor decision.
type EventKind int

const (
	// EventSuspect: detector lost heartbeats past the suspect threshold;
	// the node was marked Suspect in the cluster.
	EventSuspect EventKind = iota
	// EventSuspectCleared: heartbeats resumed before the down threshold.
	EventSuspectCleared
	// EventDown: the detector's Down verdict landed; recovery scheduled.
	EventDown
	// EventFailed: the supervisor called FailNode.
	EventFailed
	// EventRecovered: PlanRecover + ExecuteRebalance committed; the dead
	// node's data is re-owned and the cluster is whole again without it.
	EventRecovered
	// EventRetry: a recovery or readmit step failed transiently and was
	// rescheduled with backoff.
	EventRetry
	// EventGaveUp: a step exhausted MaxAttempts.
	EventGaveUp
	// EventAlive: a node the cluster holds Down resumed heartbeats; the
	// quarantine clock starts.
	EventAlive
	// EventQuarantined: the node is flapping — it died again within
	// FlapWindow of its last readmission — so its quarantine doubled.
	EventQuarantined
	// EventReadmitted: RecoverNode committed; the node serves again with
	// its replica share restored.
	EventReadmitted
)

func (k EventKind) String() string {
	switch k {
	case EventSuspect:
		return "suspect"
	case EventSuspectCleared:
		return "suspect-cleared"
	case EventDown:
		return "down"
	case EventFailed:
		return "failed"
	case EventRecovered:
		return "recovered"
	case EventRetry:
		return "retry"
	case EventGaveUp:
		return "gave-up"
	case EventAlive:
		return "alive"
	case EventQuarantined:
		return "quarantined"
	case EventReadmitted:
		return "readmitted"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one entry in the supervisor's structured decision log.
type Event struct {
	At      time.Time
	Kind    EventKind
	Node    partition.NodeID
	Attempt int // retry ordinal for EventRetry/EventGaveUp, else 0
	Detail  string
	Err     error // the failure behind EventRetry/EventGaveUp, if any
}

func (e Event) String() string {
	s := fmt.Sprintf("%s node %d", e.Kind, e.Node)
	if e.Attempt > 0 {
		s += fmt.Sprintf(" (attempt %d)", e.Attempt)
	}
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// action is one scheduled step (recovery or readmit) with its retry state.
type action struct {
	attempts int
	due      time.Time
}

// aliveTrack is a Down node that resumed beating: quarantine bookkeeping.
type aliveTrack struct {
	since time.Time
	action
}

// Supervisor drives automatic failure recovery over a cluster. Build with
// New, then either Start (heartbeats + background poll loop) or call Poll
// yourself against an injected clock for deterministic tests.
type Supervisor struct {
	c    *cluster.Cluster
	det  *detector.Detector
	opts Options

	mu          sync.Mutex
	queued      []detector.Transition // sink-observed, drained by Poll
	events      []Event
	recovering  map[partition.NodeID]*action
	alive       map[partition.NodeID]*aliveTrack
	quarantine  map[partition.NodeID]time.Duration
	lastReadmit map[partition.NodeID]time.Time
	rng         *rand.Rand

	runMu  sync.Mutex // serialises Poll: one actor at a time
	stopHB func()
	done   chan struct{}
	exited chan struct{}
}

// New builds a supervisor over c, wiring the detector into the cluster's
// announcement sink and watching every current non-coordinator node
// (heartbeats ride the cluster transport's Announce). The supervisor takes
// the sink; one supervisor per cluster.
func New(c *cluster.Cluster, opts Options) (*Supervisor, error) {
	o := opts.withDefaults()
	det, err := detector.New(o.Detector)
	if err != nil {
		return nil, err
	}
	s := &Supervisor{
		c:           c,
		det:         det,
		opts:        o,
		recovering:  make(map[partition.NodeID]*action),
		alive:       make(map[partition.NodeID]*aliveTrack),
		quarantine:  make(map[partition.NodeID]time.Duration),
		lastReadmit: make(map[partition.NodeID]time.Time),
		rng:         rand.New(rand.NewSource(o.JitterSeed)),
	}
	coord := c.Coordinator()
	for _, id := range c.Nodes() {
		if id != coord {
			det.Watch(id)
		}
	}
	c.SetAnnouncementSink(s.onAnnouncement)
	return s, nil
}

// onAnnouncement is the cluster's announcement sink: it may run on a
// transport handler goroutine while the admin lock is held, so it only
// feeds the detector (a leaf lock) and queues any readmission transition
// for Poll to act on.
func (s *Supervisor) onAnnouncement(a transport.Announcement) {
	if tr := s.det.Observe(a.Node, a.Seq); tr != nil {
		s.mu.Lock()
		s.queued = append(s.queued, *tr)
		s.mu.Unlock()
	}
}

func (s *Supervisor) now() time.Time { return s.det.Options().Clock.Now() }

func (s *Supervisor) emit(e Event) {
	e.At = s.now()
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Events returns a copy of the decision log so far.
func (s *Supervisor) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// EventCount returns how many events of the given kind have been logged.
func (s *Supervisor) EventCount(kind EventKind) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// Poll runs one supervision round: evaluate silence (detector.Tick), apply
// queued and fresh transitions, then execute any due recovery or readmit
// step. Returns the number of cluster-mutating actions taken. Safe to call
// concurrently with heartbeats; concurrent Polls serialise.
func (s *Supervisor) Poll() int {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	fresh := s.det.Tick()
	s.mu.Lock()
	trans := append(s.queued, fresh...)
	s.queued = nil
	s.mu.Unlock()
	actions := 0
	for _, tr := range trans {
		actions += s.handleTransition(tr)
	}
	actions += s.runDueRecoveries()
	actions += s.runDueReadmits()
	return actions
}

// handleTransition applies one detector verdict. Runs without s.mu held:
// it calls into the cluster.
func (s *Supervisor) handleTransition(tr detector.Transition) int {
	switch tr.To {
	case detector.Suspect:
		err := s.c.MarkNodeSuspect(tr.Node)
		s.emit(Event{Kind: EventSuspect, Node: tr.Node, Detail: fmt.Sprintf("silent %v", tr.Silence), Err: err})
		return 1
	case detector.Down:
		now := s.now()
		flapped := false
		s.mu.Lock()
		win, ok := s.quarantine[tr.Node]
		if !ok {
			win = s.opts.Quarantine
		}
		if last, ok := s.lastReadmit[tr.Node]; ok && now.Sub(last) < s.opts.FlapWindow {
			win *= 2
			if win > s.opts.QuarantineMax {
				win = s.opts.QuarantineMax
			}
			flapped = true
		} else {
			win = s.opts.Quarantine
		}
		s.quarantine[tr.Node] = win
		delete(s.alive, tr.Node)
		s.recovering[tr.Node] = &action{due: now}
		s.mu.Unlock()
		if flapped {
			s.emit(Event{Kind: EventQuarantined, Node: tr.Node, Detail: fmt.Sprintf("flapping; quarantine now %v", win)})
		}
		s.emit(Event{Kind: EventDown, Node: tr.Node, Detail: fmt.Sprintf("silent %v", tr.Silence)})
		return 1
	case detector.Healthy:
		if tr.From == detector.Suspect {
			err := s.c.ClearNodeSuspect(tr.Node)
			s.emit(Event{Kind: EventSuspectCleared, Node: tr.Node, Err: err})
			return 1
		}
		// Down → Healthy: the node is beating again.
		now := s.now()
		if health, ok := s.c.NodeHealthOf(tr.Node); ok && health == cluster.NodeDown {
			// Already failed over; start the quarantine clock toward
			// readmission.
			s.mu.Lock()
			if _, pending := s.alive[tr.Node]; !pending {
				s.alive[tr.Node] = &aliveTrack{since: now}
			}
			s.mu.Unlock()
			s.emit(Event{Kind: EventAlive, Node: tr.Node})
		} else {
			// The verdict raced the node's return: recovery never ran.
			// Cancel it and lift any suspicion.
			s.mu.Lock()
			delete(s.recovering, tr.Node)
			s.mu.Unlock()
			_ = s.c.ClearNodeSuspect(tr.Node)
			s.emit(Event{Kind: EventAlive, Node: tr.Node, Detail: "returned before failover; recovery cancelled"})
		}
		return 1
	}
	return 0
}

// backoff computes the delay before retry ordinal attempt (1-based), with
// deterministic ±25% jitter.
func (s *Supervisor) backoff(attempt int) time.Duration {
	d := s.opts.BackoffBase
	for i := 1; i < attempt && d < s.opts.BackoffMax; i++ {
		d *= 2
	}
	if d > s.opts.BackoffMax {
		d = s.opts.BackoffMax
	}
	s.mu.Lock()
	jitter := (s.rng.Float64() - 0.5) / 2 // ±25%
	s.mu.Unlock()
	return d + time.Duration(jitter*float64(d))
}

// dueNodes snapshots the nodes in m whose action is due, ascending, so the
// mutating calls below run without s.mu held.
func dueNodes[T any](mu *sync.Mutex, m map[partition.NodeID]*T, due func(*T) bool) []partition.NodeID {
	mu.Lock()
	defer mu.Unlock()
	var out []partition.NodeID
	for id, v := range m {
		if due(v) {
			out = append(out, id)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// runDueRecoveries executes the FailNode → PlanRecover → ExecuteRebalance
// sequence for every node whose recovery is due.
func (s *Supervisor) runDueRecoveries() int {
	now := s.now()
	ids := dueNodes(&s.mu, s.recovering, func(a *action) bool { return !a.due.After(now) })
	actions := 0
	for _, id := range ids {
		s.mu.Lock()
		act, ok := s.recovering[id]
		s.mu.Unlock()
		if !ok {
			continue
		}
		actions++
		err := s.recoverNode(id)
		if err == nil {
			s.emit(Event{Kind: EventRecovered, Node: id, Attempt: act.attempts + 1})
			s.mu.Lock()
			delete(s.recovering, id)
			s.mu.Unlock()
			continue
		}
		s.retryOrGiveUp(id, act, err, s.recovering)
	}
	return actions
}

// retryOrGiveUp applies the shared retry policy to a failed step.
func (s *Supervisor) retryOrGiveUp(id partition.NodeID, act *action, err error, m map[partition.NodeID]*action) {
	act.attempts++
	detail := ""
	if errors.Is(err, cluster.ErrStalePlan) {
		detail = "plan went stale (epoch conflict); will replan"
	}
	if act.attempts >= s.opts.MaxAttempts {
		s.emit(Event{Kind: EventGaveUp, Node: id, Attempt: act.attempts, Detail: detail, Err: err})
		s.mu.Lock()
		delete(m, id)
		s.mu.Unlock()
		return
	}
	act.due = s.now().Add(s.backoff(act.attempts))
	s.emit(Event{Kind: EventRetry, Node: id, Attempt: act.attempts, Detail: detail, Err: err})
}

// recoverNode runs one recovery attempt end to end.
func (s *Supervisor) recoverNode(id partition.NodeID) error {
	health, ok := s.c.NodeHealthOf(id)
	if !ok {
		return fmt.Errorf("supervisor: node %d unknown to cluster", id)
	}
	if health != cluster.NodeDown {
		if err := s.c.FailNode(id); err != nil {
			return err
		}
		s.emit(Event{Kind: EventFailed, Node: id})
	}
	plan, err := s.c.PlanRecover(id)
	if err != nil {
		return err
	}
	if _, err := s.c.ExecuteRebalance(plan); err != nil {
		return err
	}
	return nil
}

// runDueReadmits readmits nodes that have been beating steadily through
// their quarantine window.
func (s *Supervisor) runDueReadmits() int {
	now := s.now()
	s.mu.Lock()
	var ids []partition.NodeID
	for id, at := range s.alive {
		win := s.quarantine[id]
		if win == 0 {
			win = s.opts.Quarantine
		}
		if now.Sub(at.since) >= win && !at.due.After(now) {
			ids = append(ids, id)
		}
	}
	s.mu.Unlock()
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	actions := 0
	for _, id := range ids {
		// Readmit only while the detector still believes in the node; if
		// it went silent again the Down verdict will have cleared alive.
		if st, ok := s.det.StateOf(id); !ok || st != detector.Healthy {
			continue
		}
		s.mu.Lock()
		at, ok := s.alive[id]
		s.mu.Unlock()
		if !ok {
			continue
		}
		actions++
		_, err := s.c.RecoverNode(id)
		if err == nil {
			s.emit(Event{Kind: EventReadmitted, Node: id, Attempt: at.attempts + 1})
			s.mu.Lock()
			s.lastReadmit[id] = now
			delete(s.alive, id)
			s.mu.Unlock()
			continue
		}
		at.attempts++
		detail := ""
		if errors.Is(err, cluster.ErrStalePlan) {
			detail = "plan went stale (epoch conflict); will replan"
		}
		if at.attempts >= s.opts.MaxAttempts {
			s.emit(Event{Kind: EventGaveUp, Node: id, Attempt: at.attempts, Detail: detail, Err: err})
			s.mu.Lock()
			delete(s.alive, id)
			s.mu.Unlock()
			continue
		}
		at.due = s.now().Add(s.backoff(at.attempts))
		s.emit(Event{Kind: EventRetry, Node: id, Attempt: at.attempts, Detail: detail, Err: err})
	}
	return actions
}

// Start launches the heartbeat emitter and the background poll loop. Stop
// with Stop. Calling Start twice without Stop is an error.
func (s *Supervisor) Start() error {
	if s.done != nil {
		return fmt.Errorf("supervisor: already started")
	}
	s.stopHB = s.c.StartHeartbeats(s.opts.HeartbeatInterval)
	s.done = make(chan struct{})
	s.exited = make(chan struct{})
	go func() {
		defer close(s.exited)
		t := time.NewTicker(s.opts.PollInterval)
		defer t.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-t.C:
				s.Poll()
			}
		}
	}()
	return nil
}

// Stop halts the poll loop and the heartbeat emitter and unregisters the
// announcement sink. Idempotent.
func (s *Supervisor) Stop() {
	if s.done != nil {
		select {
		case <-s.done:
		default:
			close(s.done)
		}
		<-s.exited
		s.done = nil
	}
	if s.stopHB != nil {
		s.stopHB()
		s.stopHB = nil
	}
	s.c.SetAnnouncementSink(nil)
}
