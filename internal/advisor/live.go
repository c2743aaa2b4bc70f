package advisor

import (
	"fmt"
	"sync"

	"repro/internal/array"
	"repro/internal/cluster"
	"repro/internal/partition"
)

// Live is the continuous co-access advisor: a co-access graph maintained
// incrementally against the cluster's placement change feed, so advising
// costs O(what changed) instead of O(cluster) per call.
//
// Lifecycle: NewLive subscribes to the feed; the first Advise (or an
// explicit Refresh) builds the graph once under Cluster.Quiesce; from then
// on every committed ingest patches new chunks in — halo and
// congruent-join edges against the already-resident neighbourhood — and
// every committed rebalance updates owners in place. Advise runs off the
// live graph whenever its feed generation matches the cluster's; a full
// rebuild happens only on first use or detected divergence. Rolled-back
// executions and discarded plans publish nothing, so the live graph never
// sees phantom placements.
//
// Advise additionally memoises its last recommendation keyed by (feed
// generation, topology epoch, maxMoves, slack): in steady state — no
// placement or topology change since the last call — the move set and
// traffic predictions are returned without re-running the partitioner,
// and only the executable RebalancePlan is built fresh (plans are
// single-use).
//
// Concurrency: Live is safe for concurrent use, and Advise may race
// ingest and rebalance execution — the graph is patched synchronously at
// their commit points, and a recommendation invalidated mid-flight
// surfaces as a PlanMigrate validation error (retry), never as silent
// drift. Like every cluster read accessor, Advise must not race a
// concurrent PlanScaleOut/ScaleOut topology change.
type Live struct {
	c      *cluster.Cluster
	arrays []string
	// advised gates event application to the arrays the graph covers.
	advised map[array.ArrayID]bool

	// rebuildMu single-flights full rebuilds: concurrent Advise calls that
	// both detect divergence serialise here, and the second finds the
	// graph current and skips its rebuild. Never held by the feed
	// callback, so publishers cannot deadlock against a rebuild's
	// Quiesce.
	rebuildMu sync.Mutex

	// mu guards everything below. The feed callback takes it while the
	// publisher holds the cluster's admin lock, so code holding mu must
	// never acquire admin (PlanMigrate, Quiesce, …).
	mu    sync.Mutex
	g     *Graph
	gen   uint64 // feed generation the graph reflects
	valid bool   // false before first build and after detected divergence
	// rebuilding marks a quiesced rebuild in flight; event batches
	// arriving meanwhile are buffered and replayed on top of the fresh
	// graph (the build may or may not have observed them).
	rebuilding bool
	pending    []pendingBatch
	rebuilds   int
	memo       advMemo
}

// pendingBatch is one feed batch buffered during a rebuild.
type pendingBatch struct {
	gen    uint64
	events []cluster.PlacementEvent
}

// advMemo is the cached last recommendation and the state it depends on.
type advMemo struct {
	valid    bool
	gen      uint64
	epoch    uint64
	maxMoves int
	slack    float64
	moves    []partition.Move
	before   int64
	after    int64
}

// NewLive subscribes a continuous advisor to the cluster's placement
// change feed over the named arrays. The graph is built lazily: the first
// Advise/Refresh pays one full BuildGraph under Cluster.Quiesce, and all
// later placement changes are patched in incrementally. The subscription
// lasts for the life of the cluster.
func NewLive(c *cluster.Cluster, arrays []string) (*Live, error) {
	if len(arrays) == 0 {
		return nil, fmt.Errorf("advisor: NewLive needs at least one array")
	}
	l := &Live{
		c:       c,
		arrays:  append([]string(nil), arrays...),
		advised: make(map[array.ArrayID]bool, len(arrays)),
	}
	for _, name := range arrays {
		if _, ok := c.Schema(name); !ok {
			return nil, fmt.Errorf("advisor: array %q not defined", name)
		}
		l.advised[array.InternArrayName(name)] = true
	}
	l.gen = c.SubscribePlacement(l.onEvents)
	return l, nil
}

// onEvents is the feed callback: patch a valid graph in place, buffer
// for replay while a rebuild is in flight, and otherwise just track the
// generation (an invalid graph is rebuilt wholesale on next use anyway).
func (l *Live) onEvents(gen uint64, events []cluster.PlacementEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.valid:
		for i := range events {
			if !l.applyEvent(&events[i]) {
				l.valid = false // divergence: fall back to rebuild on next use
				break
			}
		}
	case l.rebuilding:
		l.pending = append(l.pending, pendingBatch{
			gen:    gen,
			events: append([]cluster.PlacementEvent(nil), events...),
		})
	}
	l.gen = gen
}

// applyEvent patches one committed change into the graph. Application is
// idempotent and self-healing: a rebuild racing an in-flight commit may
// already have observed the chunk the event announces, in which case only
// the ownership is refreshed; a move of a chunk the graph never saw is
// upgraded to an add (events carry sizes for exactly this). It reports
// false only on unresolvable divergence.
func (l *Live) applyEvent(ev *cluster.PlacementEvent) bool {
	if !l.advised[ev.Key.Array()] {
		return true
	}
	switch ev.Kind {
	case cluster.PlacementAdd, cluster.PlacementMove:
		if _, known := l.g.size[ev.Key]; known {
			l.g.moveChunk(ev.Key, ev.Node)
			return true
		}
		s, ok := l.c.Schema(ev.Key.ArrayName())
		if !ok {
			return false
		}
		l.g.addChunk(s, ev.Key, ev.Size, ev.Node)
		return true
	case cluster.PlacementRemove:
		l.g.removeChunk(ev.Key)
		return true
	}
	return false
}

// Refresh brings the live graph up to date, rebuilding from scratch only
// when it has never been built or has diverged; when the graph's feed
// generation already matches the cluster's this is two atomic loads.
// Advise calls it implicitly; it is exported so a driver can pay the cold
// build eagerly (e.g. right after workload setup).
func (l *Live) Refresh() error {
	// The feed stores a generation only after delivering its batch, so a
	// graph at or ahead of PlacementGen has applied every committed
	// change — hence >= rather than ==.
	l.mu.Lock()
	current := l.valid && l.gen >= l.c.PlacementGen()
	l.mu.Unlock()
	if current {
		return nil
	}
	l.rebuildMu.Lock()
	defer l.rebuildMu.Unlock()
	l.mu.Lock()
	if l.valid && l.gen >= l.c.PlacementGen() {
		// Another Advise rebuilt while we waited for the flight lock.
		l.mu.Unlock()
		return nil
	}
	l.rebuilding = true
	l.pending = l.pending[:0]
	l.mu.Unlock()

	// The quiesced build: no execution in flight, no batch pending
	// publication, generation frozen — the snapshot a racing rollback can
	// never contaminate.
	var g *Graph
	var gen uint64
	var err error
	l.c.Quiesce(func() {
		g, err = BuildGraph(l.c, l.arrays)
		gen = l.c.PlacementGen()
	})

	l.mu.Lock()
	defer l.mu.Unlock()
	l.rebuilding = false
	if err != nil {
		l.pending = nil
		l.valid = false
		return err
	}
	l.g = g
	l.valid = true
	l.rebuilds++
	for _, b := range l.pending {
		if b.gen <= gen {
			continue // committed before the quiesced snapshot; already in g
		}
		for i := range b.events {
			if !l.applyEvent(&b.events[i]) {
				l.pending = nil
				l.valid = false
				return fmt.Errorf("advisor: live graph diverged during rebuild")
			}
		}
	}
	l.pending = nil
	if l.gen < gen {
		l.gen = gen
	}
	return nil
}

// Rebuilds returns how many full BuildGraph fallbacks the advisor has
// paid — 1 after warm-up; anything above counts detected divergences.
func (l *Live) Rebuilds() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rebuilds
}

// plan returns the (memoised) recommendation: the move set plus the
// predicted before/after remote traffic. The returned slice is a copy.
func (l *Live) plan(maxMoves int, slack float64) (moves []partition.Move, before, after int64, err error) {
	if err := l.Refresh(); err != nil {
		return nil, 0, 0, err
	}
	epoch := l.c.Epoch()
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.valid {
		return nil, 0, 0, fmt.Errorf("advisor: live graph invalidated concurrently; retry")
	}
	m := &l.memo
	if !(m.valid && m.gen == l.gen && m.epoch == epoch && m.maxMoves == maxMoves && m.slack == slack) {
		planned := l.g.Plan(l.c, maxMoves, slack)
		*m = advMemo{
			valid:    true,
			gen:      l.gen,
			epoch:    epoch,
			maxMoves: maxMoves,
			slack:    slack,
			moves:    planned,
			before:   l.g.RemoteBytes(),
			after:    l.g.RemoteBytesAfter(planned),
		}
	}
	return append([]partition.Move(nil), m.moves...), m.before, m.after, nil
}

// Advise plans up to maxMoves migrations off the live graph and returns
// the validated rebalance plan plus the predicted before/after remote
// traffic, exactly like the package-level Advise — minus the per-call
// graph rebuild. Execute the returned plan with cluster.ExecuteRebalance
// or Discard it; Advise itself moves nothing.
func (l *Live) Advise(maxMoves int, slack float64) (*Advice, error) {
	moves, before, after, err := l.plan(maxMoves, slack)
	if err != nil {
		return nil, err
	}
	// PlanMigrate re-validates every move against the authoritative
	// catalog (and must run outside l.mu: it takes the admin lock the
	// feed publishers hold while calling back into us). A placement
	// change that slipped in since planning surfaces here as a
	// validation or staleness error.
	plan, err := l.c.PlanMigrate(moves)
	if err != nil {
		return nil, err
	}
	return &Advice{
		Plan:              plan,
		Moves:             moves,
		RemoteBytesBefore: before,
		RemoteBytesAfter:  after,
	}, nil
}
