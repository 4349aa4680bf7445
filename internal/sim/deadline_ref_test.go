package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// Deadline is checked differentially against refDeadline, the lazy
// retransmission timer tcp.Subflow hand-rolled before it: setRTODeadline and
// rtoTick kept verbatim. One seeded script of deadlines — outside events and
// fns that set, move earlier or later, clear and stop themselves and their
// siblings — runs on each, and the two must fire the same events in the same
// order: every tick, fn call and outside event at the same instant, with the
// same Pending after each. That pins push order, not only fire times.
// FuzzDeadlineReference explores scripts.

// deadline is what a script needs of a deadline; both forms have it.
type deadline interface {
	Set(at Time)
	At() Time
	Clear()
	Stop()
}

// refDeadline is the subflow's timer with the subflow taken out: what
// setRTODeadline computed from the RTO and backoff is Set's argument, and the
// state and inflight guards of rtoTick are fn's business. Schedule became At
// so that Stop, which the subflow never had, can unlink the queued tick.
type refDeadline struct {
	eng         *Engine
	fn          func()
	rtoDeadline Time
	rtoArmed    bool
	rtoTickFn   func()
	timer       Timer
}

func (s *refDeadline) Set(at Time) {
	s.rtoDeadline = at
	if !s.rtoArmed {
		s.rtoArmed = true
		s.timer = s.eng.At(s.rtoDeadline, s.rtoTickFn)
	}
}

func (s *refDeadline) rtoTick() {
	s.rtoArmed = false
	if s.rtoDeadline == 0 {
		return
	}
	if now := s.eng.Now(); now < s.rtoDeadline {
		s.rtoArmed = true
		s.timer = s.eng.At(s.rtoDeadline, s.rtoTickFn)
		return
	}
	s.fn()
}

func (s *refDeadline) At() Time { return s.rtoDeadline }
func (s *refDeadline) Clear()   { s.rtoDeadline = 0 }

func (s *refDeadline) Stop() {
	s.rtoDeadline = 0
	if s.rtoArmed {
		s.rtoArmed = false
		s.timer.Stop()
	}
}

// fireOne is the engine's loop for a single event, with pre called on the
// handler just before it fires. It reports false when nothing is queued at or
// before until.
func fireOne(e *Engine, until Time, pre func(Handler)) bool {
	id := e.next(until)
	if id == 0 {
		return false
	}
	e.now = e.cur
	h := e.slab[id].h
	e.recycle(id)
	e.processed++
	pre(h)
	h.Fire()
	return true
}

// deadlineStep is one fired event: the entries it logged end at log[end], and
// pending is what was queued after it.
type deadlineStep struct {
	end, pending int
}

// runDeadlineScript builds n deadlines on a fresh engine through mk and lets a
// script drawn from seed drive them until 1 ms. Log ids below 100 are ticks of
// deadline id, 100+id its fn and 1000+k outside event k; mk's tick logs a
// tick where the engine cannot name the handler.
func runDeadlineScript(seed int64, n int, mk func(eng *Engine, fn, tick func()) deadline) (log []fired, steps []deadlineStep) {
	eng := NewEngine(1)
	rng := rand.New(rand.NewSource(seed))
	spans := []Time{1, 2, 3, 5, 8, 13, 40}
	ds := make([]deadline, n)
	act := func(i int) {
		switch rng.Intn(8) {
		case 0, 1, 2, 3: // later or earlier than the queued tick, as it falls
			ds[i].Set(eng.Now() + spans[rng.Intn(len(spans))]*Microsecond)
		case 4:
			ds[i].Clear()
		case 5:
			ds[i].Stop()
		case 6: // ensureRTO: set only if unset
			if ds[i].At() == 0 {
				ds[i].Set(eng.Now() + spans[rng.Intn(len(spans))]*Microsecond)
			}
		}
	}
	for i := range ds {
		ds[i] = mk(eng, func() {
			log = append(log, fired{eng.Now(), 100 + i})
			act(i)
			if rng.Intn(3) == 0 {
				act(rng.Intn(n))
			}
		}, func() { log = append(log, fired{eng.Now(), i}) })
	}
	for k := range 60 {
		eng.Schedule(Time(rng.Intn(100))*2*Microsecond, func() {
			log = append(log, fired{eng.Now(), 1000 + k})
			act(rng.Intn(n))
		})
	}
	pre := func(h Handler) {
		if _, ok := h.(*Deadline); !ok {
			return
		}
		for i, d := range ds {
			if any(d) == any(h) {
				log = append(log, fired{eng.Now(), i})
			}
		}
	}
	for fireOne(eng, Millisecond, pre) {
		steps = append(steps, deadlineStep{len(log), eng.Pending()})
	}
	return log, steps
}

// checkDeadlineScript reports the ticks that called fn and those that did not
// (chased a later deadline or found it cleared).
func checkDeadlineScript(t *testing.T, seed int64, n int) (due, idle int) {
	t.Helper()
	got, gotSteps := runDeadlineScript(seed, n, func(eng *Engine, fn, _ func()) deadline {
		d := MakeDeadline(eng, fn)
		return &d
	})
	want, wantSteps := runDeadlineScript(seed, n, func(eng *Engine, fn, tick func()) deadline {
		r := &refDeadline{eng: eng, fn: fn}
		r.rtoTickFn = func() {
			tick()
			r.rtoTick()
		}
		return r
	})
	for i := range min(len(gotSteps), len(wantSteps)) {
		g, w := gotSteps[i], wantSteps[i]
		if g.end != w.end || !slices.Equal(got[:g.end], want[:w.end]) {
			t.Fatalf("seed %d n %d: event %d logged %v, reference %v", seed, n, i, got[:g.end], want[:w.end])
		}
		if g.pending != w.pending {
			t.Fatalf("seed %d n %d: after event %d Pending %d, reference %d", seed, n, i, g.pending, w.pending)
		}
	}
	if len(gotSteps) != len(wantSteps) {
		t.Fatalf("seed %d n %d: %d events fired, reference %d", seed, n, len(gotSteps), len(wantSteps))
	}
	for i, e := range got {
		switch {
		case e.id >= 100:
		case i+1 < len(got) && got[i+1] == fired{e.at, 100 + e.id}:
			due++
		default:
			idle++
		}
	}
	return due, idle
}

func TestDeadlineMatchesReference(t *testing.T) {
	var due, idle int
	for seed := int64(1); seed <= 100; seed++ {
		d, i := checkDeadlineScript(t, seed, 1+int(seed%4))
		due, idle = due+d, idle+i
	}
	if due < 500 || idle < 500 {
		t.Errorf("%d ticks called fn and %d did not: the scripts exercise one side only", due, idle)
	}
	t.Logf("%d ticks called fn, %d chased or found nothing", due, idle)
}

func FuzzDeadlineReference(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		checkDeadlineScript(t, seed, 1+int(n%5))
	})
}

func TestDeadlineMovedEarlierFiresAtQueuedTick(t *testing.T) {
	for _, mk := range []func(eng *Engine, fn func()) deadline{
		func(eng *Engine, fn func()) deadline { d := MakeDeadline(eng, fn); return &d },
		func(eng *Engine, fn func()) deadline {
			r := &refDeadline{eng: eng, fn: fn}
			r.rtoTickFn = r.rtoTick
			return r
		},
	} {
		eng := NewEngine(1)
		var at []Time
		d := mk(eng, func() { at = append(at, eng.Now()) })
		d.Set(100)
		eng.Schedule(10, func() { d.Set(50) })
		eng.Run(200)
		if !slices.Equal(at, []Time{100}) || eng.Processed() != 2 {
			t.Errorf("%T: fired at %v after %d events, want [100] after 2", d, at, eng.Processed())
		}
	}
}

func TestDeadlineChasesLaterAndFnSeesItSet(t *testing.T) {
	eng := NewEngine(1)
	var at []Time
	var d Deadline
	d = MakeDeadline(eng, func() {
		if d.At() != eng.Now() {
			t.Errorf("fn ran with deadline %d at %d", d.At(), eng.Now())
		}
		if at = append(at, eng.Now()); len(at) == 1 {
			d.Set(eng.Now() + 10) // re-armed from fn: queued at once
		}
	})
	d.Set(10)
	eng.Schedule(5, func() { d.Set(30) })
	eng.Run(100)
	// Ticks at 10 (chase to 30), 30 (fn, re-arm), 40 (fn); one outside event.
	if !slices.Equal(at, []Time{30, 40}) || eng.Processed() != 4 || eng.Pending() != 0 {
		t.Errorf("fired at %v after %d events, %d pending; want [30 40], 4, 0", at, eng.Processed(), eng.Pending())
	}
}

func TestDeadlineStopOwnsNothing(t *testing.T) {
	eng := NewEngine(1)
	d := MakeDeadline(eng, func() { t.Error("a stopped deadline fired") })
	d.Set(10)
	d.Set(20)
	if eng.Pending() != 1 {
		t.Fatalf("%d events queued for one deadline", eng.Pending())
	}
	d.Stop()
	if eng.Pending() != 0 || d.At() != 0 {
		t.Fatalf("stopped: %d pending, deadline %d", eng.Pending(), d.At())
	}
	// The unlinked tick's slot goes to the next event; a second Stop must not
	// cancel that stranger.
	ran := false
	eng.Schedule(10, func() { ran = true })
	d.Stop()
	eng.Run(30)
	if !ran {
		t.Error("Stop on a stopped deadline cancelled the event that reused its slot")
	}
}

func TestDeadlineDoesNotAllocate(t *testing.T) {
	eng := NewEngine(1)
	n, cycles := 0, 0
	d := MakeDeadline(eng, func() { n++ })
	cycle := func() {
		cycles++
		d.Set(eng.Now() + 10) // queues
		d.Set(eng.Now() + 20) // only records
		eng.Run(eng.Now() + 30)
		d.Set(eng.Now() + 10)
		d.Stop()
	}
	cycle() // grow the slab once
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("%v allocations per Set, chase, Fire and Stop, want 0", allocs)
	}
	if n != cycles {
		t.Errorf("fn ran %d times over %d cycles", n, cycles)
	}
}
