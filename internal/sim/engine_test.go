package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, at := range []Time{5 * Millisecond, Millisecond, 3 * Millisecond} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.Run(Second)
	want := []Time{Millisecond, 3 * Millisecond, 5 * Millisecond}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineSameTimestampFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(Millisecond, func() { order = append(order, i) })
	}
	e.Run(Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d; same-time events must run FIFO", i, v)
		}
	}
}

var engineSink *Engine

// TestEngineRandSeedsOnFirstUse: the engine's source is built by the first
// Rand call. Whether that call comes before any event or after some have
// run, the engine draws what a source seeded at construction draws, and
// every call returns the one *rand.Rand. An engine nothing draws from
// allocates twice, 6 192 bytes (the engine and its slab); seeding it at
// construction allocated twice more, 5 424 bytes (the rand.Rand and its
// 607-word source, seeded word by word). The test logs both byte counts.
func TestEngineRandSeedsOnFirstUse(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		for _, late := range []bool{false, true} {
			e := NewEngine(seed)
			if late {
				for i := 0; i < 10; i++ {
					e.After(Time(i)*Millisecond, func() {})
				}
				e.Run(Second)
			}
			got := e.Rand()
			if e.Rand() != got {
				t.Fatalf("seed %d: two Rand calls return two sources", seed)
			}
			want := rand.New(rand.NewSource(seed))
			for i := 0; i < 1000; i++ {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d (first Rand after events: %v): draw %d = %d, want %d", seed, late, i, g, w)
				}
			}
		}
	}

	bare := func() { engineSink = NewEngine(1) }
	seeded := func() { engineSink = NewEngine(1); engineSink.Rand() }
	if n := testing.AllocsPerRun(20, bare); n != 2 {
		t.Errorf("NewEngine allocates %v times, want 2 (engine, slab)", n)
	}
	if n := testing.AllocsPerRun(20, seeded); n != 4 {
		t.Errorf("NewEngine + Rand allocates %v times, want 4 (engine, slab, rand.Rand, source)", n)
	}
	bytes := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 100
	}
	b, s := bytes(bare), bytes(seeded)
	t.Logf("NewEngine: %d bytes; seeding its source: %d more", b, s-b)
}

func TestEngineClockAdvancesMonotonically(t *testing.T) {
	e := NewEngine(7)
	rng := rand.New(rand.NewSource(42))
	var stamps []Time
	for i := 0; i < 500; i++ {
		e.At(Time(rng.Int63n(int64(Second))), func() { stamps = append(stamps, e.Now()) })
	}
	e.Run(Second)
	if len(stamps) != 500 {
		t.Fatalf("ran %d events, want 500", len(stamps))
	}
	if !sort.SliceIsSorted(stamps, func(i, j int) bool { return stamps[i] < stamps[j] }) {
		t.Error("engine clock went backwards")
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.At(10*Millisecond, func() {
		e.After(5*Millisecond, func() { at = e.Now() })
	})
	e.Run(Second)
	if at != 15*Millisecond {
		t.Errorf("nested After fired at %v, want 15ms", at.Duration())
	}
}

func TestEngineSchedulingInPastClampsToNow(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.At(10*Millisecond, func() {
		e.At(Millisecond, func() { at = e.Now() })
	})
	e.Run(Second)
	if at != 10*Millisecond {
		t.Errorf("past event fired at %v, want clamped to 10ms", at.Duration())
	}
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.At(2*Second, func() { ran = true })
	end := e.Run(Second)
	if ran {
		t.Error("event beyond horizon ran")
	}
	if end != Second {
		t.Errorf("Run returned %v, want horizon 1s", end.Duration())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	// A later Run picks the event up.
	e.Run(3 * Second)
	if !ran {
		t.Error("event did not run after horizon extended")
	}
}

func TestRunNeverMovesClockBackwards(t *testing.T) {
	// A Run to an instant already passed must leave the clock where it is,
	// whether or not events are pending (a pending event used to pull the
	// clock back to until), and also when the run ends early.
	e := NewEngine(1)
	e.At(Second, func() {})
	e.Run(20 * Millisecond)
	if end := e.Run(5 * Millisecond); end != 20*Millisecond || e.Now() != 20*Millisecond {
		t.Fatalf("Run(5ms) after Run(20ms) left the clock at %v (returned %v), want 20ms",
			e.Now().Duration(), end.Duration())
	}
	// An event scheduled now is due at 20 ms, not at the stale horizon.
	var at Time
	e.Schedule(0, func() { at = e.Now() })
	e.Run(10 * Millisecond)
	if at != 0 || e.Pending() != 2 {
		t.Fatalf("event due at 20ms ran at %v inside Run(10ms)", at.Duration())
	}
	e.Run(30 * Millisecond)
	if at != 20*Millisecond {
		t.Fatalf("clamped event ran at %v, want 20ms", at.Duration())
	}
	// Ended early by Stop or by the budget, the clock stays at the last event.
	e.Schedule(40*Millisecond, e.Stop)
	e.SetEventBudget(e.Processed()+2, func() {})
	e.Schedule(50*Millisecond, func() {})
	e.Schedule(60*Millisecond, func() {})
	for _, want := range []Time{40 * Millisecond, 50 * Millisecond, 50 * Millisecond} {
		if end := e.Run(35 * Millisecond); end != e.Now() || end < 30*Millisecond {
			t.Fatalf("Run(35ms) moved the clock back to %v", end.Duration())
		}
		if end := e.Run(Second / 2); end != want {
			t.Fatalf("run ended early at %v, want %v", end.Duration(), want.Duration())
		}
	}
}

func TestTimerStopPreventsFiring(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.At(Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Error("Stop on pending timer returned false")
	}
	if tm.Stop() {
		t.Error("second Stop returned true")
	}
	e.Run(Second)
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestTimerActive(t *testing.T) {
	e := NewEngine(1)
	tm := e.At(Millisecond, func() {})
	if !tm.Active() {
		t.Error("pending timer not Active")
	}
	e.Run(Second)
	if tm.Active() {
		t.Error("fired timer still Active")
	}
	tm2 := e.At(Millisecond, func() {})
	tm2.Stop()
	if tm2.Active() {
		t.Error("stopped timer still Active")
	}
}

func TestPendingExcludesStoppedTimers(t *testing.T) {
	// Pinned semantics: Pending counts events still scheduled to fire.
	// Stopping a timer removes its event from the queue immediately, so
	// cancelled events are never reported (and never occupy a wheel slot).
	e := NewEngine(1)
	timers := make([]Timer, 3)
	for i := range timers {
		timers[i] = e.At(Time(i+1)*Millisecond, func() {})
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	if !timers[1].Stop() {
		t.Fatal("Stop on pending timer failed")
	}
	if e.Pending() != 2 {
		t.Errorf("Pending = %d after one Stop, want 2", e.Pending())
	}
	e.Run(Second)
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after Run, want 0", e.Pending())
	}
}

func TestStaleTimerHandleIsInert(t *testing.T) {
	// After an event fires it is recycled; a handle kept around must not be
	// able to cancel the event's next incarnation.
	e := NewEngine(1)
	tm := e.At(Millisecond, func() {})
	e.Run(2 * Millisecond)
	if tm.Active() {
		t.Error("fired timer still Active")
	}
	// Heavy churn forces reuse of the recycled event.
	fired := 0
	for i := 0; i < 200; i++ {
		e.After(Time(i)*Microsecond, func() { fired++ })
	}
	if tm.Stop() {
		t.Error("stale handle cancelled a recycled event")
	}
	e.Run(Second)
	if fired != 200 {
		t.Errorf("fired %d events, want 200 (stale Stop must be a no-op)", fired)
	}
}

func TestStopDuringRunRemovesFromQueue(t *testing.T) {
	// An event firing may stop another pending timer; the removal happens
	// mid-loop and must keep the queue consistent.
	e := NewEngine(1)
	var victims []Timer
	fired := 0
	for i := 0; i < 50; i++ {
		victims = append(victims, e.At(Time(10+i)*Millisecond, func() { fired++ }))
	}
	e.At(5*Millisecond, func() {
		for _, v := range victims {
			v.Stop()
		}
	})
	e.Run(Second)
	if fired != 0 {
		t.Errorf("%d stopped timers fired", fired)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", e.Pending())
	}
}

func TestEngineStopHaltsRun(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i)*Millisecond, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run(Second)
	if count != 3 {
		t.Errorf("ran %d events after Stop, want 3", count)
	}
}

func TestEngineDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var out []int64
		var spawn func()
		spawn = func() {
			out = append(out, int64(e.Now())+e.Rand().Int63n(100))
			if len(out) < 200 {
				e.After(Time(e.Rand().Int63n(int64(Millisecond))), spawn)
			}
		}
		e.At(0, spawn)
		e.Run(Second)
		return out
	}
	a, b := run(99), run(99)
	if len(a) != len(b) {
		t.Fatalf("runs diverged in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(100)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical runs; RNG not wired through")
	}
}

func TestEngineProcessedCount(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 17; i++ {
		e.At(Time(i), func() {})
	}
	e.Run(Second)
	if e.Processed() != 17 {
		t.Errorf("Processed = %d, want 17", e.Processed())
	}
}

func TestTimeConversions(t *testing.T) {
	if FromDuration(time.Second) != Second {
		t.Error("FromDuration(1s) != Second")
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Error("Seconds conversion wrong")
	}
	if (3 * Millisecond).Duration() != 3*time.Millisecond {
		t.Error("Duration conversion wrong")
	}
}

// Property: for any set of schedule times, events run sorted and none is lost.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		e := NewEngine(5)
		var got []Time
		for _, r := range raw {
			at := Time(r % uint32(Second))
			e.At(at, func() { got = append(got, e.Now()) })
		}
		e.Drain()
		if len(got) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEngineDrainRunsEverything(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.At(5*Second, func() { n++; e.After(Second, func() { n++ }) })
	e.Drain()
	if n != 2 {
		t.Errorf("Drain ran %d events, want 2", n)
	}
}
