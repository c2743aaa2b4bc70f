package detector

import (
	"testing"
	"time"

	"repro/internal/partition"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// newManualDetector builds a detector on a manual clock with 100ms
// heartbeats, suspect at 400ms, down at 1s — all crossings driven
// explicitly, no sleeps anywhere.
func newManualDetector(t *testing.T) (*Detector, *ManualClock) {
	t.Helper()
	clk := NewManualClock(t0)
	d, err := New(Options{
		ExpectedInterval: 100 * time.Millisecond,
		SuspectAfter:     400 * time.Millisecond,
		DownAfter:        time.Second,
		Clock:            clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, clk
}

func TestOptionValidation(t *testing.T) {
	if _, err := New(Options{ExpectedInterval: -time.Second}); err == nil {
		t.Error("negative interval accepted")
	}
	if _, err := New(Options{SuspectAfter: time.Second, DownAfter: time.Second}); err == nil {
		t.Error("DownAfter <= SuspectAfter accepted")
	}
	if _, err := New(Options{SuspectIntervals: -1}); err == nil {
		t.Error("negative multiplier accepted")
	}
	d, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := d.Options()
	if o.ExpectedInterval != 100*time.Millisecond || o.SuspectAfter != 400*time.Millisecond || o.DownAfter != time.Second {
		t.Errorf("defaults = %v/%v/%v, want 100ms/400ms/1s", o.ExpectedInterval, o.SuspectAfter, o.DownAfter)
	}
}

// TestNoFalsePositive pins the headline determinism property: a node
// beating on schedule is never suspected, no matter how long the run, and
// silence short of the threshold produces no verdict.
func TestNoFalsePositive(t *testing.T) {
	d, clk := newManualDetector(t)
	d.Watch(2)
	// 50 on-schedule beats: no transition ever.
	for seq := uint64(1); seq <= 50; seq++ {
		clk.Advance(100 * time.Millisecond)
		if tr := d.Observe(2, seq); tr != nil {
			t.Fatalf("on-schedule beat %d produced transition %v", seq, tr)
		}
		if got := d.Tick(); len(got) != 0 {
			t.Fatalf("tick after on-schedule beat %d: %v", seq, got)
		}
	}
	// Silence just below the suspect threshold: still healthy.
	clk.Advance(399 * time.Millisecond)
	if got := d.Tick(); len(got) != 0 {
		t.Fatalf("silence below threshold produced %v", got)
	}
	if st, _ := d.StateOf(2); st != Healthy {
		t.Fatalf("state = %v, want Healthy", st)
	}
}

func TestSuspectThenDownAtThresholds(t *testing.T) {
	d, clk := newManualDetector(t)
	d.Watch(2)
	clk.Advance(100 * time.Millisecond)
	d.Observe(2, 1)

	clk.Advance(400 * time.Millisecond) // exactly the suspect threshold
	got := d.Tick()
	if len(got) != 1 || got[0].Node != 2 || got[0].From != Healthy || got[0].To != Suspect {
		t.Fatalf("at suspect threshold: %v, want Healthy→Suspect for node 2", got)
	}
	if got[0].Silence != 400*time.Millisecond {
		t.Errorf("silence = %v, want 400ms", got[0].Silence)
	}
	// Re-ticking in the suspect band is quiet (no repeated verdicts).
	clk.Advance(100 * time.Millisecond)
	if again := d.Tick(); len(again) != 0 {
		t.Fatalf("suspect re-verdict: %v", again)
	}

	clk.Advance(500 * time.Millisecond) // total silence now 1s = down threshold
	got = d.Tick()
	if len(got) != 1 || got[0].From != Suspect || got[0].To != Down {
		t.Fatalf("at down threshold: %v, want Suspect→Down", got)
	}
	if st, _ := d.StateOf(2); st != Down {
		t.Fatalf("state = %v, want Down", st)
	}
	// Down is terminal for Tick: no more verdicts however long the silence.
	clk.Advance(time.Hour)
	if again := d.Tick(); len(again) != 0 {
		t.Fatalf("down node re-verdicted: %v", again)
	}
}

// TestStraightToDown: a node silent past both thresholds in one gap gets a
// single Healthy→Down verdict, not two.
func TestStraightToDown(t *testing.T) {
	d, clk := newManualDetector(t)
	d.Watch(2)
	clk.Advance(5 * time.Second)
	got := d.Tick()
	if len(got) != 1 || got[0].From != Healthy || got[0].To != Down {
		t.Fatalf("long silence: %v, want one Healthy→Down", got)
	}
}

func TestRecoveryOnResumedHeartbeats(t *testing.T) {
	d, clk := newManualDetector(t)
	d.Watch(2)
	clk.Advance(2 * time.Second)
	d.Tick() // → Down
	clk.Advance(100 * time.Millisecond)
	tr := d.Observe(2, 1)
	if tr == nil || tr.From != Down || tr.To != Healthy {
		t.Fatalf("resumed heartbeat: %v, want Down→Healthy", tr)
	}
	if st, _ := d.StateOf(2); st != Healthy {
		t.Fatalf("state = %v, want Healthy", st)
	}
	// And from Suspect too.
	clk.Advance(450 * time.Millisecond)
	if got := d.Tick(); len(got) != 1 || got[0].To != Suspect {
		t.Fatalf("tick: %v, want suspect", got)
	}
	if tr := d.Observe(2, 2); tr == nil || tr.From != Suspect || tr.To != Healthy {
		t.Fatalf("resumed heartbeat: %v, want Suspect→Healthy", tr)
	}
}

// TestStaleSeqIsNotLife: a replayed or regressed sequence number must not
// refresh liveness — only fresh beats count.
func TestStaleSeqIsNotLife(t *testing.T) {
	d, clk := newManualDetector(t)
	d.Watch(2)
	clk.Advance(100 * time.Millisecond)
	d.Observe(2, 7)
	// Replay seq 7 (and a regression to 3) right up to the threshold.
	for i := 0; i < 4; i++ {
		clk.Advance(100 * time.Millisecond)
		d.Observe(2, 7)
		d.Observe(2, 3)
	}
	got := d.Tick()
	if len(got) != 1 || got[0].To != Suspect {
		t.Fatalf("replayed seqs kept node alive: %v, want suspect", got)
	}
	st := d.Status()
	if len(st) != 1 || st[0].Stale != 8 || st[0].Beats != 1 {
		t.Fatalf("status = %+v, want 8 stale, 1 beat", st)
	}
}

func TestObserveAutoWatches(t *testing.T) {
	d, clk := newManualDetector(t)
	if tr := d.Observe(9, 1); tr != nil {
		t.Fatalf("first beat of unknown node produced %v", tr)
	}
	if st, ok := d.StateOf(9); !ok || st != Healthy {
		t.Fatalf("auto-watched node: %v, %v", st, ok)
	}
	clk.Advance(2 * time.Second)
	if got := d.Tick(); len(got) != 1 || got[0].Node != 9 || got[0].To != Down {
		t.Fatalf("auto-watched node not tracked: %v", got)
	}
}

// TestAdaptiveThresholds: with interval multipliers set, a node whose beats
// naturally arrive slowly earns proportionally more patience than the fixed
// floor alone grants.
func TestAdaptiveThresholds(t *testing.T) {
	clk := NewManualClock(t0)
	d, err := New(Options{
		ExpectedInterval: 200 * time.Millisecond,
		SuspectAfter:     300 * time.Millisecond, // fixed floor
		DownAfter:        10 * time.Second,
		SuspectIntervals: 3, // adaptive: 3x EWMA ≈ 600ms
		Clock:            clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Watch(2)
	for seq := uint64(1); seq <= 10; seq++ {
		clk.Advance(200 * time.Millisecond)
		d.Observe(2, seq)
	}
	// 500ms of silence: above the 300ms floor but inside 3x the ~200ms
	// observed inter-arrival — a fixed-timeout detector would false-alarm
	// here, the adaptive one must not.
	clk.Advance(500 * time.Millisecond)
	if got := d.Tick(); len(got) != 0 {
		t.Fatalf("adaptive detector false-alarmed: %v", got)
	}
	clk.Advance(200 * time.Millisecond) // 700ms total > 3x EWMA
	if got := d.Tick(); len(got) != 1 || got[0].To != Suspect {
		t.Fatalf("adaptive threshold never fired: %v", got)
	}
}

// TestTickOrderDeterministic: multiple verdicts in one tick arrive in
// ascending node order regardless of map iteration.
func TestTickOrderDeterministic(t *testing.T) {
	d, clk := newManualDetector(t)
	for _, id := range []int{7, 3, 11, 5, 2} {
		d.Watch(partition.NodeID(id))
	}
	clk.Advance(5 * time.Second)
	got := d.Tick()
	if len(got) != 5 {
		t.Fatalf("want 5 verdicts, got %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Node >= got[i].Node {
			t.Fatalf("verdicts out of order: %v", got)
		}
	}
}

func TestWatchIdempotent(t *testing.T) {
	d, clk := newManualDetector(t)
	d.Watch(2)
	clk.Advance(300 * time.Millisecond)
	d.Watch(2) // must not reset nor duplicate
	clk.Advance(100 * time.Millisecond)
	if got := d.Tick(); len(got) != 1 || got[0].To != Suspect {
		t.Fatalf("re-Watch reset the silence clock: %v", got)
	}
}

func TestStateStrings(t *testing.T) {
	for st, want := range map[State]string{Healthy: "healthy", Suspect: "suspect", Down: "down"} {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
}
