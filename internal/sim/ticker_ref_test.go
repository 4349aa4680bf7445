package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Ticker is checked differentially against refTicker, the hand-rolled loop it
// replaced at every owner: a closure that runs fn and then re-schedules
// itself, a stopped flag and the Timer of the queued tick. One seeded script
// of tickers — equal and co-prime periods, fns that schedule same-instant
// one-shots and stop or restart themselves and their siblings — runs on
// each, and the two must agree on every fired (instant, id), on Processed and
// on Pending. FuzzTickerReference explores scripts.

// periodic is what a script needs of a ticker; both forms have it.
type periodic interface {
	Start()
	Stop()
}

type refTicker struct {
	eng     *Engine
	period  Time
	fn      func()
	tick    func()
	running bool
	timer   Timer
}

func newRefTicker(eng *Engine, period Time, fn func()) *refTicker {
	r := &refTicker{eng: eng, period: period, fn: fn}
	r.tick = func() {
		r.fn()
		if r.running && !r.timer.Active() {
			r.timer = eng.After(period, r.tick)
		}
	}
	return r
}

func (r *refTicker) Start() {
	if r.running {
		return
	}
	r.running = true
	r.timer = r.eng.After(r.period, r.tick)
}

func (r *refTicker) Stop() {
	r.running = false
	r.timer.Stop()
}

// fired is one log entry: ids below 100 are ticks, 100+id the one-shots
// ticker id scheduled.
type fired struct {
	at Time
	id int
}

// runTickerScript builds n tickers on a fresh engine through mk and lets a
// script drawn from seed drive them; it returns what fired, in order, and how
// many events the stopped tickers still own at the end.
func runTickerScript(seed int64, n int, mk func(eng *Engine, period Time, fn func()) periodic) (log []fired, processed uint64, owned int) {
	eng := NewEngine(1)
	rng := rand.New(rand.NewSource(seed))
	shots := 0 // one-shots queued and not yet fired
	shot := func(id int) func() {
		shots++
		return func() {
			shots--
			log = append(log, fired{eng.Now(), 100 + id})
		}
	}
	periods := []Time{10, 10, 7, 3, 15, 64, 10}
	ts := make([]periodic, n)
	for i := range ts {
		id, period := i, periods[rng.Intn(len(periods))]*Microsecond
		ts[i] = mk(eng, period, func() {
			log = append(log, fired{eng.Now(), id})
			sib := rng.Intn(n)
			switch rng.Intn(12) {
			case 0: // a one-shot at this instant fires before the next tick is queued
				eng.Schedule(eng.Now(), shot(id))
			case 1: // one that lands on a later tick's instant, queued ahead of it
				eng.ScheduleAfter(period, shot(id))
			case 2:
				ts[id].Stop()
			case 3:
				ts[sib].Stop()
			case 4:
				ts[sib].Start()
			case 5: // re-phase from inside fn
				ts[id].Stop()
				ts[id].Start()
			}
		})
	}
	for _, t := range ts {
		t.Start()
	}
	// An outside hand restarts everything now and then, off the tick grid.
	for at := 333 * Microsecond; at < 2*Millisecond; at += 333 * Microsecond {
		eng.Schedule(at, func() {
			for _, t := range ts {
				t.Start()
			}
		})
	}
	eng.Run(2 * Millisecond)
	for _, t := range ts {
		t.Stop()
	}
	return log, eng.Processed(), eng.Pending() - shots
}

func checkTickerScript(t *testing.T, seed int64, n int) (events int) {
	t.Helper()
	got, gotN, owned := runTickerScript(seed, n, func(eng *Engine, period Time, fn func()) periodic {
		tk := MakeTicker(eng, period, fn)
		return &tk
	})
	want, wantN, _ := runTickerScript(seed, n, func(eng *Engine, period Time, fn func()) periodic {
		return newRefTicker(eng, period, fn)
	})
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("seed %d n %d: event %d fired %v, reference %v", seed, n, i, got[i], want[i])
			}
		}
		t.Fatalf("seed %d n %d: %d events fired, reference %d", seed, n, len(got), len(want))
	}
	if gotN != wantN {
		t.Errorf("seed %d n %d: Processed %d, reference %d", seed, n, gotN, wantN)
	}
	if owned != 0 {
		t.Errorf("seed %d n %d: the stopped tickers own %d queued events", seed, n, owned)
	}
	return len(got)
}

func TestTickerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		if n := checkTickerScript(t, seed, 2+int(seed%5)); n < 50 {
			t.Errorf("seed %d: only %d events fired, the script exercises nothing", seed, n)
		}
	}
}

func FuzzTickerReference(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		checkTickerScript(t, seed, 2+int(n%6))
	})
}

func TestTickerFiresAfterFn(t *testing.T) {
	// What fn schedules for the next tick's instant runs ahead of that tick:
	// the tick is queued only after fn returns.
	eng := NewEngine(1)
	var order []string
	var tk Ticker
	tk = MakeTicker(eng, 10, func() {
		order = append(order, "tick")
		eng.ScheduleAfter(10, func() { order = append(order, "shot") })
	})
	tk.Start()
	eng.Run(25)
	if got := fmt.Sprint(order); got != "[tick shot tick]" {
		t.Errorf("order %v, want [tick shot tick]", order)
	}
}

func TestTickerStopInsideFn(t *testing.T) {
	eng := NewEngine(1)
	n := 0
	var tk Ticker
	tk = MakeTicker(eng, 10, func() {
		if n++; n == 3 {
			tk.Stop()
		}
	})
	tk.Start()
	eng.Run(100)
	if n != 3 || tk.Running() || eng.Pending() != 0 || eng.Processed() != 3 {
		t.Errorf("ticks %d running %v pending %d processed %d, want 3 false 0 3",
			n, tk.Running(), eng.Pending(), eng.Processed())
	}
}

func TestTickerStartTwiceIsOneChain(t *testing.T) {
	eng := NewEngine(1)
	n := 0
	tk := MakeTicker(eng, 10, func() { n++ })
	tk.Start()
	eng.Schedule(5, tk.Start)
	eng.Run(35)
	if n != 3 || eng.Pending() != 1 {
		t.Errorf("ticks %d pending %d after two Starts, want 3 and 1", n, eng.Pending())
	}
}

func TestTickerRestartRephasesFromNow(t *testing.T) {
	eng := NewEngine(1)
	var at []Time
	tk := MakeTicker(eng, 10, func() { at = append(at, eng.Now()) })
	tk.Start()
	eng.Schedule(25, func() {
		tk.Stop()
		tk.Start()
	})
	eng.Run(50)
	if want := []Time{10, 20, 35, 45}; !slices.Equal(at, want) {
		t.Errorf("ticks at %v, want %v", at, want)
	}
}

func TestTickerStartNow(t *testing.T) {
	eng := NewEngine(1)
	var at []Time
	var tk Ticker
	tk = MakeTicker(eng, 10, func() {
		if at = append(at, eng.Now()); len(at) == 3 {
			tk.Stop()
		}
	})
	eng.Schedule(7, tk.StartNow)
	eng.Run(100)
	if want := []Time{7, 17, 27}; !slices.Equal(at, want) || eng.Pending() != 0 {
		t.Errorf("ticks at %v pending %d, want %v and 0", at, eng.Pending(), want)
	}
	// fn may end the chain on the inline tick: nothing is ever queued.
	one := 0
	var once Ticker
	once = MakeTicker(eng, 10, func() { one++; once.Stop() })
	once.StartNow()
	if one != 1 || once.Running() || eng.Pending() != 0 {
		t.Errorf("ticks %d running %v pending %d after a self-stopping StartNow", one, once.Running(), eng.Pending())
	}
}

func TestTickerStaleTimerIsInert(t *testing.T) {
	// A stopped ticker still holds the handle of the tick it unlinked. The
	// slab slot is reused by the next event scheduled; stopping the ticker
	// again must not cancel that stranger.
	eng := NewEngine(1)
	tk := MakeTicker(eng, 10, func() { t.Error("a stopped ticker fired") })
	tk.Start()
	tk.Stop()
	ran := false
	eng.ScheduleAfter(10, func() { ran = true })
	tk.Stop()
	eng.Run(20)
	if !ran {
		t.Error("Stop on a stopped ticker cancelled the event that reused its slot")
	}
}

func TestTickerDoesNotAllocate(t *testing.T) {
	eng := NewEngine(1)
	n := 0
	tk := MakeTicker(eng, Microsecond, func() { n++ })
	tk.Start()
	step := func() { eng.Run(eng.Now() + 64*Microsecond) }
	step()
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("%v allocations per 64 ticks, want 0", allocs)
	}
	restart := func() {
		tk.Stop()
		tk.Start()
	}
	if allocs := testing.AllocsPerRun(20, restart); allocs != 0 {
		t.Errorf("%v allocations per Stop+Start, want 0", allocs)
	}
}
