package supervise

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"mptcpsim/internal/sim"
)

// Budget bounds one supervised run. Zero fields enforce nothing.
type Budget struct {
	// Wall is the wall-clock deadline for a single attempt, checked by a
	// periodic watchdog event inside the engine loop. Wall timeouts are the
	// only nondeterministic trip — identical seeds can time out on a loaded
	// machine and pass on an idle one — so campaigns that need determinism
	// across worker counts should bound runs primarily with Events and keep
	// Wall as a generous backstop against true hangs.
	Wall time.Duration
	// Events caps processed engine events (deterministic; also catches
	// same-instant event storms that never advance the clock).
	Events uint64
	// SimTime caps the simulated clock, independent of the run's own
	// horizon (deterministic).
	SimTime sim.Time
	// HeapBytes caps the process's live heap (runtime.ReadMemStats
	// HeapAlloc), checked on a periodic engine event. Like Wall this is a
	// nondeterministic backstop — heap size depends on GC timing and on
	// whatever else shares the process — so it belongs on population-scale
	// runs as an OOM guard, not as a determinism-bearing bound.
	HeapBytes uint64
}

// The simulated cadence of the watchdog's periodic checks. Heap checks are
// coarser than wall checks: ReadMemStats is not free.
const (
	wallCheckEvery = 10 * sim.Millisecond
	heapCheckEvery = 100 * sim.Millisecond
)

// Trip is the panic payload a watchdog throws through the engine loop when
// a budget is exhausted. It implements error so the supervisor's recover
// can classify it without string matching.
type Trip struct {
	Kind Kind
	Msg  string
}

func (t *Trip) Error() string { return fmt.Sprintf("%s: %s", t.Kind, t.Msg) }

// Watchdog enforces a Budget on one attempt of one run. The supervisor
// hands a fresh Watchdog to each attempt; the run closure must Attach it to
// the engine it builds (Attach is a nil-safe no-op, so the same closure
// works unsupervised). A tripped watchdog panics a *Trip out of eng.Run —
// the supervisor's recover converts it into a timed-out or over-budget
// Report, which is what lets the budget abort a run from inside the engine
// without any per-closure error plumbing.
type Watchdog struct {
	budget   Budget
	now      func() time.Time
	deadline time.Time
	eng      *sim.Engine
	sample   func() string
}

// Attach arms the watchdog on eng: a periodic event checks the wall-clock
// deadline, the engine's event budget enforces the event cap, and a
// one-shot event enforces the simulated-time cap. Calling Attach on a nil
// watchdog or with a zero budget is a no-op. The watchdog's own periodic
// check events count toward the event budget; size Events accordingly
// (the wall check adds 100 events per simulated second).
func (w *Watchdog) Attach(eng *sim.Engine) {
	if w == nil || eng == nil {
		return
	}
	w.eng = eng
	if w.budget.Wall > 0 {
		if w.deadline.IsZero() { // one deadline per attempt, however many engines it attaches
			w.deadline = w.now().Add(w.budget.Wall)
		}
		wall := sim.MakeTicker(eng, wallCheckEvery, func() {
			if w.now().After(w.deadline) {
				// Where the run got to varies with machine speed: LastObsv only.
				panic(&Trip{Kind: KindTimeout, Msg: fmt.Sprintf("wall-clock deadline %v exceeded", w.budget.Wall)})
			}
		})
		wall.Start()
	}
	if w.budget.HeapBytes > 0 {
		heap := sim.MakeTicker(eng, heapCheckEvery, func() {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > w.budget.HeapBytes {
				panic(&Trip{Kind: KindBudget, Msg: fmt.Sprintf(
					"heap budget %d bytes exceeded (HeapAlloc=%d) at %s",
					w.budget.HeapBytes, ms.HeapAlloc, w.lastObsv())})
			}
		})
		heap.Start()
	}
	if w.budget.Events > 0 {
		eng.SetEventBudget(w.budget.Events, func() {
			panic(&Trip{Kind: KindBudget, Msg: fmt.Sprintf(
				"event budget %d exhausted at %s", w.budget.Events, w.lastObsv())})
		})
	}
	if w.budget.SimTime > 0 {
		eng.At(w.budget.SimTime, func() {
			panic(&Trip{Kind: KindBudget, Msg: fmt.Sprintf(
				"sim-time budget %.3fs exhausted at %s", w.budget.SimTime.Seconds(), w.lastObsv())})
		})
	}
}

// StopOnCancel polls ctx every period of simulated time and stops the engine
// once it is cancelled, so a signal ends the simulation at a clean event
// boundary — metrics, records and meters then flush normally over whatever
// simulated time actually elapsed. The poll touches no RNG, so an
// uncancelled run's results are unchanged by it.
func StopOnCancel(ctx context.Context, eng *sim.Engine, every sim.Time) {
	var poll sim.Ticker
	poll = sim.MakeTicker(eng, every, func() {
		if ctx.Err() != nil {
			eng.Stop()
			poll.Stop()
		}
	})
	poll.Start()
}

// SetSample registers a hook returning a one-line snapshot of run state
// (e.g. per-subflow cwnd) to enrich RunError.LastObsv on failure.
func (w *Watchdog) SetSample(fn func() string) {
	if w == nil {
		return
	}
	w.sample = fn
}

// lastObsv renders the final observation for a RunError: engine clock and
// event count, plus the run's registered sample if any.
func (w *Watchdog) lastObsv() string {
	if w == nil || w.eng == nil {
		return ""
	}
	s := fmt.Sprintf("t=%.3fs events=%d", w.eng.Now().Seconds(), w.eng.Processed())
	if w.sample != nil {
		s += " " + w.sample()
	}
	return s
}
