package sim

import "testing"

// TestEventBudgetTrips verifies that the in-loop budget fires trip before
// processing event n+1 and stops the run.
func TestEventBudgetTrips(t *testing.T) {
	eng := NewEngine(1)
	var fired int
	for i := 0; i < 10; i++ {
		eng.Schedule(Time(i)*Millisecond, func() { fired++ })
	}
	tripped := false
	eng.SetEventBudget(4, func() { tripped = true })
	eng.Run(Second)
	if !tripped {
		t.Fatalf("budget of 4 with 10 queued events did not trip")
	}
	if fired != 4 {
		t.Fatalf("fired %d events, want exactly 4", fired)
	}
	if got := eng.Processed(); got != 4 {
		t.Fatalf("Processed() = %d, want 4", got)
	}
}

// TestEventBudgetExactlyAtHorizon pins the boundary semantics: a run whose
// queue holds exactly the budgeted number of events inside the horizon
// completes cleanly — the budget only trips when one more event would run.
func TestEventBudgetExactlyAtHorizon(t *testing.T) {
	eng := NewEngine(1)
	for i := 0; i < 5; i++ {
		eng.Schedule(Time(i)*Millisecond, func() {})
	}
	// A sixth event beyond the horizon must not trigger the budget either:
	// the horizon check runs first.
	eng.Schedule(2*Second, func() {})
	tripped := false
	eng.SetEventBudget(5, func() { tripped = true })
	eng.Run(Second)
	if tripped {
		t.Fatalf("budget tripped although exactly 5 events ran inside the horizon")
	}
	if got := eng.Processed(); got != 5 {
		t.Fatalf("Processed() = %d, want 5", got)
	}
}

// TestEventBudgetCatchesSameInstantStorm verifies the property that makes
// the in-loop check necessary: events that reschedule themselves at the
// current instant never advance the clock, so only the budget stops them.
func TestEventBudgetCatchesSameInstantStorm(t *testing.T) {
	eng := NewEngine(1)
	var storm func()
	storm = func() { eng.Schedule(eng.Now(), storm) }
	eng.Schedule(0, storm)
	tripped := false
	eng.SetEventBudget(1000, func() { tripped = true })
	eng.Run(Second)
	if !tripped {
		t.Fatalf("same-instant event storm did not trip the budget")
	}
	if got := eng.Processed(); got != 1000 {
		t.Fatalf("Processed() = %d, want 1000", got)
	}
}

// TestEventBudgetTripMayPanic verifies a panicking trip aborts the run and
// propagates to the caller (the supervisor's quarantine path).
func TestEventBudgetTripMayPanic(t *testing.T) {
	eng := NewEngine(1)
	for i := 0; i < 10; i++ {
		eng.Schedule(Time(i)*Millisecond, func() {})
	}
	eng.SetEventBudget(3, func() { panic("over budget") })
	defer func() {
		if r := recover(); r != "over budget" {
			t.Fatalf("recovered %v, want the trip panic", r)
		}
	}()
	eng.Run(Second)
	t.Fatalf("Run returned without panicking")
}

// TestEngineSteadyStateAllocs is the allocation budget of the queue: once
// the slab has reached its size, schedule, fire, Stop and the cascades in
// between allocate nothing — events at nanosecond, microsecond and second
// deltas, so every window is one the cursor crosses level boundaries in.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	fn := func() { fired++ }
	var rto Timer
	window := func() {
		for i := 0; i < 512; i++ {
			e.ScheduleAfter(staggered(i), fn)
			e.After(Time(i)*Millisecond, fn)
			rto.Stop()
			rto = e.At(e.Now()+3600*Second, fn)
		}
		e.Run(e.Now() + Second)
	}
	window() // warm-up: grows the slab
	avg := testing.AllocsPerRun(20, window)
	if avg != 0 {
		t.Errorf("steady-state schedule/fire/stop/cascade allocates %.2f times per window, want 0", avg)
	}
	if e.Pending() != 1 || fired != 22*1024 {
		t.Errorf("Pending = %d, fired = %d; want the one hour-ahead timer and %d", e.Pending(), fired, 22*1024)
	}
}
