package supervise

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mptcpsim/internal/check"
	"mptcpsim/internal/runner"
	"mptcpsim/internal/sim"
)

// noSleep replaces the backoff timer with one that has already fired and
// records the delays it was asked to wait.
func noSleep() (*[]time.Duration, func(time.Duration) <-chan time.Time) {
	var mu sync.Mutex
	var ds []time.Duration
	fired := make(chan time.Time)
	close(fired)
	return &ds, func(d time.Duration) <-chan time.Time {
		mu.Lock()
		ds = append(ds, d)
		mu.Unlock()
		return fired
	}
}

func TestRunOK(t *testing.T) {
	s := New(Budget{})
	rep := s.Run(context.Background(), RunID{Seed: 1, Scenario: "ok", Phase: "test"}, func(wd *Watchdog) error {
		return nil
	})
	if rep.Outcome != OK || rep.Attempts != 1 || rep.Err != nil {
		t.Fatalf("got %+v, want OK on first attempt", rep)
	}
	if c := s.Counts(); c.OK != 1 || c.Total() != 1 {
		t.Fatalf("counts = %v", c)
	}
}

func TestRetryThenSucceed(t *testing.T) {
	s := New(Budget{})
	s.Retries = 3
	var delays *[]time.Duration
	delays, s.after = noSleep()
	calls := 0
	rep := s.Run(context.Background(), RunID{Seed: 7, Scenario: "flaky", Phase: "test"}, func(wd *Watchdog) error {
		calls++
		if calls < 3 {
			return Transient(errors.New("io hiccup"))
		}
		return nil
	})
	if rep.Outcome != Retried {
		t.Fatalf("outcome = %v, want Retried", rep.Outcome)
	}
	if rep.Attempts != 3 || calls != 3 {
		t.Fatalf("attempts = %d, calls = %d, want 3", rep.Attempts, calls)
	}
	if len(*delays) != 2 {
		t.Fatalf("slept %d times, want 2", len(*delays))
	}
	// Capped exponential: second delay's base doubles the first's, jitter
	// adds at most half the base on top.
	if (*delays)[1] < (*delays)[0]/2 {
		t.Fatalf("backoff not growing: %v", *delays)
	}
	if c := s.Counts(); c.Retried != 1 || c.Failed() != 0 {
		t.Fatalf("counts = %v", c)
	}
}

func TestRetryExhaustion(t *testing.T) {
	s := New(Budget{})
	s.Retries = 2
	_, s.after = noSleep()
	calls := 0
	rep := s.Run(context.Background(), RunID{Seed: 9, Scenario: "doomed", Phase: "test"}, func(wd *Watchdog) error {
		calls++
		return Transient(errors.New("still broken"))
	})
	if rep.Outcome != Quarantined {
		t.Fatalf("outcome = %v, want Quarantined", rep.Outcome)
	}
	if calls != 3 { // initial + 2 retries
		t.Fatalf("calls = %d, want 3", calls)
	}
	if rep.Err == nil || rep.Err.Kind != KindError || rep.Err.Attempts != 3 {
		t.Fatalf("err = %+v", rep.Err)
	}
	if c := s.Counts(); c.Quarantined != 1 {
		t.Fatalf("counts = %v", c)
	}
}

func TestNonTransientNotRetried(t *testing.T) {
	s := New(Budget{})
	s.Retries = 5
	calls := 0
	rep := s.Run(context.Background(), RunID{Seed: 2, Scenario: "hard", Phase: "test"}, func(wd *Watchdog) error {
		calls++
		return errors.New("deterministic failure")
	})
	if rep.Outcome != Quarantined || calls != 1 {
		t.Fatalf("outcome = %v calls = %d, want immediate quarantine", rep.Outcome, calls)
	}
}

func TestPanicQuarantinedWithStack(t *testing.T) {
	s := New(Budget{})
	s.Retries = 5 // panics must never be retried
	calls := 0
	rep := s.Run(context.Background(), RunID{Seed: 3, Scenario: "boom", Phase: "test"}, func(wd *Watchdog) error {
		calls++
		panic("kaboom")
	})
	if rep.Outcome != Quarantined || calls != 1 {
		t.Fatalf("outcome = %v calls = %d, want quarantined without retry", rep.Outcome, calls)
	}
	if rep.Err.Kind != KindPanic || rep.Err.Msg != "kaboom" {
		t.Fatalf("err = %+v", rep.Err)
	}
	if !strings.Contains(rep.Err.Stack, "supervise") {
		t.Fatalf("stack not captured: %q", rep.Err.Stack)
	}
}

// TestInvariantPanicClassified: an internal/check failure is KindInvariant
// by its type, in both its shapes and through every wrapper it crosses, and
// carries the first violated invariant's name; an error or panic whose text
// merely reads like one is not.
func TestInvariantPanicClassified(t *testing.T) {
	const fast = "check: invariant violated: t=1.000s conn.conservation: lost bytes"
	failing := func(failFast bool) func(*Watchdog) error {
		return func(*Watchdog) error {
			inv := check.New(sim.NewEngine(4))
			inv.FailFast = failFast
			inv.Inject(check.Violation{T: sim.Second, Invariant: check.InvConnConserv, Detail: "lost bytes"})
			inv.Inject(check.Violation{T: sim.Second, Invariant: check.InvCwnd, Detail: "cwnd=0"})
			return inv.Err()
		}
	}
	pooled := func(*Watchdog) error {
		_, errs := runner.MapErrCtx(context.Background(), 1, 1, func(int) (int, error) { return 0, failing(true)(nil) })
		return runner.FirstErr(errs)
	}
	cases := []struct {
		name      string
		fn        func(*Watchdog) error
		kind      Kind
		invariant string
		msg       string
	}{
		{"FailFast panic", failing(true), KindInvariant, check.InvConnConserv, fast},
		{"collected Err", failing(false), KindInvariant, check.InvConnConserv,
			"check: 2 invariant violation(s); t=1.000s conn.conservation: lost bytes; t=1.000s subflow.cwnd: cwnd=0"},
		{"FailFast panic through the runner pool", pooled, KindInvariant, check.InvConnConserv, "runner: fn(0) panicked: " + fast},
		{"look-alike error", func(*Watchdog) error { return errors.New(fast) }, KindError, "", fast},
		{"look-alike panic", func(*Watchdog) error { panic(fast) }, KindPanic, "", fast},
	}
	for _, tc := range cases {
		rep := New(Budget{}).Run(context.Background(), RunID{Seed: 4, Scenario: "inv", Phase: "test"}, tc.fn)
		if e := rep.Err; e == nil || e.Kind != tc.kind || e.Invariant != tc.invariant || e.Msg != tc.msg {
			t.Errorf("%s: err = %+v, want kind %s, invariant %q, msg %q", tc.name, rep.Err, tc.kind, tc.invariant, tc.msg)
		}
	}
}

// TestDeadlineMidSlowStart drives a fake wall clock: the run's engine
// processes events normally until the clock (advanced by each watchdog
// check) passes the deadline mid-run, and the trip surfaces as TimedOut.
func TestDeadlineMidSlowStart(t *testing.T) {
	s := New(Budget{Wall: 100 * time.Millisecond})
	fake := time.Unix(0, 0)
	s.now = func() time.Time {
		fake = fake.Add(10 * time.Millisecond) // each check costs 10ms of "wall" time
		return fake
	}
	var lastT sim.Time
	rep := s.Run(context.Background(), RunID{Seed: 5, Scenario: "slow-start", Phase: "test"}, func(wd *Watchdog) error {
		eng := sim.NewEngine(5)
		wd.Attach(eng)
		// A long run: an event every 100us for 10 simulated seconds, far
		// more than the deadline allows.
		var step func()
		step = func() {
			lastT = eng.Now()
			eng.ScheduleAfter(100*sim.Microsecond, step)
		}
		eng.Schedule(0, step)
		eng.Run(10 * sim.Second)
		return nil
	})
	if rep.Outcome != TimedOut {
		t.Fatalf("outcome = %v, want TimedOut", rep.Outcome)
	}
	if rep.Err.Kind != KindTimeout {
		t.Fatalf("err = %+v", rep.Err)
	}
	if lastT == 0 || lastT >= 10*sim.Second {
		t.Fatalf("deadline should fire mid-run, last event at %v", lastT)
	}
	if !strings.Contains(rep.Err.LastObsv, "t=") {
		t.Fatalf("LastObsv missing engine sample: %q", rep.Err.LastObsv)
	}
	if c := s.Counts(); c.TimedOut != 1 {
		t.Fatalf("counts = %v", c)
	}
}

// TestTimeoutNotRetried pins that a timed-out run is terminal even with a
// retry budget: a hang will hang again.
func TestTimeoutNotRetried(t *testing.T) {
	s := New(Budget{Wall: time.Millisecond})
	s.Retries = 5
	fake := time.Unix(0, 0)
	s.now = func() time.Time {
		fake = fake.Add(time.Second)
		return fake
	}
	calls := 0
	rep := s.Run(context.Background(), RunID{Seed: 6, Scenario: "hang", Phase: "test"}, func(wd *Watchdog) error {
		calls++
		eng := sim.NewEngine(6)
		wd.Attach(eng)
		var spin func()
		spin = func() { eng.ScheduleAfter(sim.Millisecond, spin) }
		eng.Schedule(0, spin)
		eng.Run(sim.Second)
		return nil
	})
	if rep.Outcome != TimedOut || calls != 1 {
		t.Fatalf("outcome = %v calls = %d, want TimedOut without retry", rep.Outcome, calls)
	}
}

// TestBudgetExhaustionAtHorizon pins the boundary from the run's side: a
// scenario that needs exactly its budget completes OK, one more event trips
// OverBudget.
func TestBudgetExhaustionAtHorizon(t *testing.T) {
	run := func(events int) Report {
		s := New(Budget{Events: 100})
		return s.Run(context.Background(), RunID{Seed: 8, Scenario: "boundary", Phase: "test"}, func(wd *Watchdog) error {
			eng := sim.NewEngine(8)
			wd.Attach(eng)
			for i := 0; i < events; i++ {
				eng.Schedule(sim.Time(i)*sim.Millisecond, func() {})
			}
			eng.Run(sim.Second)
			return nil
		})
	}
	if rep := run(100); rep.Outcome != OK {
		t.Fatalf("exactly-at-budget run: outcome = %v (err %v), want OK", rep.Outcome, rep.Err)
	}
	rep := run(101)
	if rep.Outcome != OverBudget {
		t.Fatalf("one-over-budget run: outcome = %v, want OverBudget", rep.Outcome)
	}
	if rep.Err.Kind != KindBudget {
		t.Fatalf("err = %+v", rep.Err)
	}
}

func TestSimTimeBudget(t *testing.T) {
	s := New(Budget{SimTime: sim.Second})
	rep := s.Run(context.Background(), RunID{Seed: 10, Scenario: "simtime", Phase: "test"}, func(wd *Watchdog) error {
		eng := sim.NewEngine(10)
		wd.Attach(eng)
		var spin func()
		spin = func() { eng.ScheduleAfter(100*sim.Millisecond, spin) }
		eng.Schedule(0, spin)
		eng.Run(10 * sim.Second)
		return nil
	})
	if rep.Outcome != OverBudget || rep.Err.Kind != KindBudget {
		t.Fatalf("got %+v, want OverBudget", rep)
	}
}

// TestHeapBytesBudget arms the nondeterministic heap backstop. An
// impossible 1-byte budget must trip at the first heap check; a generous
// budget must not interfere.
func TestHeapBytesBudget(t *testing.T) {
	run := func(heap uint64) Report {
		s := New(Budget{HeapBytes: heap})
		return s.Run(context.Background(), RunID{Seed: 12, Scenario: "heap", Phase: "test"}, func(wd *Watchdog) error {
			eng := sim.NewEngine(12)
			wd.Attach(eng)
			var spin func()
			spin = func() { eng.ScheduleAfter(50*sim.Millisecond, spin) }
			eng.Schedule(0, spin)
			eng.Run(2 * sim.Second)
			return nil
		})
	}
	rep := run(1)
	if rep.Outcome != OverBudget || rep.Err.Kind != KindBudget {
		t.Fatalf("1-byte heap budget: got %+v, want OverBudget", rep)
	}
	if rep := run(64 << 30); rep.Outcome != OK {
		t.Fatalf("64 GiB heap budget tripped: %+v", rep)
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	a := backoffDelay(42, 1)
	b := backoffDelay(42, 1)
	if a != b {
		t.Fatalf("jitter not seed-deterministic: %v vs %v", a, b)
	}
	if a < backoffBase || a > backoffBase*3/2 {
		t.Fatalf("first retry waits %v, want the %v base plus at most half of it", a, backoffBase)
	}
	for _, attempt := range []int{30, 80} { // 80 overflows the shift
		if d := backoffDelay(1, attempt); d < backoffCap || d > backoffCap*3/2 {
			t.Fatalf("backoff before retry %d is %v, want the %v cap plus at most half of it", attempt, d, backoffCap)
		}
	}
}

func TestTransientWrapping(t *testing.T) {
	base := errors.New("disk full")
	if !IsTransient(Transient(base)) {
		t.Fatal("Transient(err) not recognized")
	}
	if !IsTransient(fmt.Errorf("wrapped: %w", Transient(base))) {
		t.Fatal("wrapped transient not recognized")
	}
	if IsTransient(base) {
		t.Fatal("plain error misclassified as transient")
	}
	if Transient(nil) != nil {
		t.Fatal("Transient(nil) must be nil")
	}
}

func TestNilWatchdogNoop(t *testing.T) {
	var wd *Watchdog
	wd.Attach(sim.NewEngine(1)) // must not panic
	wd.SetSample(func() string { return "" })
	if got := wd.lastObsv(); got != "" {
		t.Fatalf("nil watchdog lastObsv = %q", got)
	}
}

func TestOutcomeStrings(t *testing.T) {
	want := map[Outcome]string{
		OK: "ok", Retried: "retried", Quarantined: "quarantined",
		TimedOut: "timed-out", OverBudget: "over-budget", Skipped: "skipped",
	}
	for o, s := range want {
		if o.String() != s {
			t.Fatalf("%d.String() = %q, want %q", o, o.String(), s)
		}
	}
	c := Counts{OK: 1, Retried: 2, Quarantined: 3, TimedOut: 4, OverBudget: 5}
	if c.Total() != 15 || c.Failed() != 12 {
		t.Fatalf("Counts arithmetic wrong: %+v", c)
	}
	if !strings.Contains(c.String(), "quarantined=3") {
		t.Fatalf("Counts.String() = %q", c.String())
	}
}
