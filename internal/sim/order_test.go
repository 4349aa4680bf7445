package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// The ordering contract — events fire by instant, and within an instant in
// the order they were scheduled — is checked differentially: one small
// program of schedule/stop/run steps, decoded from bytes, runs once on the
// engine and once on refQueue, a deliberately naive model, and the two
// traces must be equal. FuzzEngineOrder explores programs; orderSeeds holds
// the shapes a timing wheel is most likely to get wrong.

// queue is what a program needs of an event queue. Handles are small
// integers into a per-run table, so a program can name "the third timer it
// created" on either implementation; handle 0 is the zero Timer.
type queue interface {
	clock() Time
	at(t Time, fn func(), handle bool)    // At / Schedule
	after(d Time, fn func(), handle bool) // After / ScheduleAfter
	stop(h int) bool                      // h modulo the table size; -1 is the newest handle
	run(until Time) Time
	drain()
	halt()
	budget(n uint64, trip func())
	pending() int
	processed() uint64
	check() error // the implementation's own consistency check
}

// engineQueue adapts the real engine.
type engineQueue struct {
	e       *Engine
	handles []Timer
}

func newEngineQueue() *engineQueue {
	return &engineQueue{e: NewEngine(1), handles: []Timer{{}}}
}

func (q *engineQueue) clock() Time { return q.e.Now() }
func (q *engineQueue) at(t Time, fn func(), handle bool) {
	if handle {
		q.handles = append(q.handles, q.e.At(t, fn))
	} else {
		q.e.Schedule(t, fn)
	}
}
func (q *engineQueue) after(d Time, fn func(), handle bool) {
	if handle {
		q.handles = append(q.handles, q.e.After(d, fn))
	} else {
		q.e.ScheduleAfter(d, fn)
	}
}
func (q *engineQueue) stop(h int) bool {
	tm := q.handles[(h+len(q.handles))%len(q.handles)]
	stopped := tm.Stop()
	if tm.Active() {
		panic("timer still Active after Stop")
	}
	return stopped
}
func (q *engineQueue) run(until Time) Time          { return q.e.Run(until) }
func (q *engineQueue) drain()                       { q.e.Drain() }
func (q *engineQueue) halt()                        { q.e.Stop() }
func (q *engineQueue) budget(n uint64, trip func()) { q.e.SetEventBudget(n, trip) }
func (q *engineQueue) pending() int                 { return q.e.Pending() }
func (q *engineQueue) processed() uint64            { return q.e.Processed() }
func (q *engineQueue) check() error                 { return q.e.checkWheel() }

// refQueue is the reference: pending events in a slice kept in schedule
// order, the next event found by a linear scan for the first minimal
// instant — a stable sort by instant, one element at a time.
type refQueue struct {
	now     Time
	events  []refEvent
	serial  int   // events ever scheduled; an event's serial is its identity
	handles []int // handle -> serial; 0 names no event
	done    uint64
	halted  bool
	max     uint64
	trip    func()
}

type refEvent struct {
	at     Time
	serial int
	fn     func()
}

func newRefQueue() *refQueue { return &refQueue{handles: []int{0}} }

func (q *refQueue) clock() Time { return q.now }
func (q *refQueue) at(t Time, fn func(), handle bool) {
	if t < q.now {
		t = q.now
	}
	q.serial++
	q.events = append(q.events, refEvent{t, q.serial, fn})
	if handle {
		q.handles = append(q.handles, q.serial)
	}
}
func (q *refQueue) after(d Time, fn func(), handle bool) { q.at(q.now+d, fn, handle) }
func (q *refQueue) stop(h int) bool {
	serial := q.handles[(h+len(q.handles))%len(q.handles)]
	for i, ev := range q.events {
		if ev.serial == serial {
			q.events = append(q.events[:i], q.events[i+1:]...)
			return true
		}
	}
	return false
}
func (q *refQueue) loop(until Time) {
	q.halted = false
	for !q.halted {
		first := -1
		for i, ev := range q.events {
			if first < 0 || ev.at < q.events[first].at {
				first = i
			}
		}
		if first < 0 || q.events[first].at > until {
			return
		}
		if q.max != 0 && q.done >= q.max {
			if q.trip != nil {
				q.trip()
			}
			q.halted = true
			return
		}
		ev := q.events[first]
		q.events = append(q.events[:first], q.events[first+1:]...)
		q.now = ev.at
		q.done++
		ev.fn()
	}
}
func (q *refQueue) run(until Time) Time {
	q.loop(until)
	if q.now < until && !q.halted {
		q.now = until
	}
	return q.now
}
func (q *refQueue) drain()                       { q.loop(maxTime) }
func (q *refQueue) halt()                        { q.halted = true }
func (q *refQueue) budget(n uint64, trip func()) { q.max, q.trip = n, trip }
func (q *refQueue) pending() int                 { return len(q.events) }
func (q *refQueue) processed() uint64            { return q.done }
func (q *refQueue) check() error                 { return nil }

// A program is a sequence of 4-byte steps {op, a, b, c}.
const (
	opAt         = iota // At(instants[a]+c%3-1), the event behaves as spec{b, c, a}
	opSchedule          // the same through Schedule
	opAfter             // After(spans[a]), the event behaves as spec{b, c, a}
	opSchedAfter        // the same through ScheduleAfter
	opStop              // Stop handle a
	opRun               // Run(Now()+spans[a]); with b odd Run(instants[a]), maybe backwards
	opDrain             // Drain
	opBudget            // SetEventBudget(Processed()+a%8, trip); a == 0 removes it
	opCount
)

// An event's behaviour when it fires, spec.act modulo actCount.
const (
	actNone      = iota
	actNow       // schedule a child for the current instant
	actAfter     // schedule a child spans[x] ahead
	actStop      // stop handle x
	actHalt      // Engine.Stop
	actRestart   // stop handle x, then a child spans[y] ahead with a handle: an RTO restart
	actStopLater // schedule a handled child for this instant and stop it at once
	actCount
)

type spec struct{ act, x, y byte }

// spans are relative delays: zero, the edges of the low wheel levels, packet
// and RTO scale, then seconds to hours and beyond for the top levels, and a
// negative one that must clamp.
var spans = []Time{
	0, 1, 2, 62, 63, 64, 65, 4095, 4096, 4097, 1<<18 - 1, 1 << 18, 1<<24 + 1,
	Microsecond, 12 * Microsecond, 100 * Microsecond, Millisecond, 200 * Millisecond,
	Second, 3 * Second, 60 * Second, 3600 * Second, 1<<36 - 1, 1 << 36, 1<<42 + 7,
	1 << 48, 1<<54 - 1, 1 << 58, -5 * Millisecond,
}

// instants are absolute times at level boundaries 2^(6k); a step lands one
// nanosecond before, on, or after them.
var instants = []Time{
	0, 1 << 6, 1 << 12, 2 << 12, 1 << 18, 1 << 24, 1 << 30, 3 << 30, 1 << 36,
	1 << 42, 1 << 48, 1 << 54, 1 << 60, Second, 3600 * Second,
}

const maxDepth = 4 // bounds the chain of events scheduling events

// runProgram executes prog on q and returns its trace: one entry per fired
// event, naming the event, and one per step.
func runProgram(q queue, prog []byte) []string {
	var trace []string
	made := 0 // handlers are numbered as they are created, which is schedule order
	var handler func(s spec, depth int) func()
	handler = func(s spec, depth int) func() {
		made++
		id := made
		return func() {
			trace = append(trace, fmt.Sprintf("fire #%d act=%d at=%d", id, s.act%actCount, q.clock()))
			if depth >= maxDepth {
				return
			}
			child := handler(spec{s.x, s.y, s.act}, depth+1)
			switch s.act % actCount {
			case actNow:
				q.at(q.clock(), child, s.y%2 == 0)
			case actAfter:
				q.after(spans[int(s.x)%len(spans)], child, s.y%2 == 0)
			case actStop:
				trace = append(trace, fmt.Sprint("  stop ", q.stop(int(s.x))))
			case actHalt:
				q.halt()
			case actRestart:
				trace = append(trace, fmt.Sprint("  stop ", q.stop(int(s.x))))
				q.after(spans[int(s.y)%len(spans)], child, true)
			case actStopLater:
				q.at(q.clock(), child, true)
				trace = append(trace, fmt.Sprint("  stop ", q.stop(-1)))
			}
		}
	}
	trips := 0
	for n := 0; n+4 <= len(prog) && n < 4*256; n += 4 {
		op, a, b, c := prog[n]%opCount, prog[n+1], prog[n+2], prog[n+3]
		step := fmt.Sprintf("step %d op=%d", n/4, op)
		switch op {
		case opAt, opSchedule:
			t := instants[int(a)%len(instants)] + Time(c%3) - 1
			q.at(t, handler(spec{b, c, a}, 0), op == opAt)
		case opAfter, opSchedAfter:
			q.after(spans[int(a)%len(spans)], handler(spec{b, c, a}, 0), op == opAfter)
		case opStop:
			step += fmt.Sprint(" stopped=", q.stop(int(a)))
		case opRun:
			until := q.clock() + spans[int(a)%len(spans)]
			if b%2 == 1 {
				until = instants[int(a)%len(instants)]
			}
			step += fmt.Sprint(" ran to ", q.run(until))
		case opDrain:
			q.drain()
		case opBudget:
			limit := uint64(a % 8)
			if limit != 0 {
				limit += q.processed()
			}
			q.budget(limit, func() { trips++ })
		}
		trace = append(trace, fmt.Sprintf("%s now=%d pending=%d processed=%d trips=%d",
			step, q.clock(), q.pending(), q.processed(), trips))
		if err := q.check(); err != nil {
			trace = append(trace, "inconsistent: "+err.Error())
		}
	}
	q.budget(0, nil)
	q.drain()
	return append(trace, fmt.Sprintf("end now=%d pending=%d processed=%d", q.clock(), q.pending(), q.processed()))
}

// checkWheel verifies the wheel's invariants and bookkeeping: cursor ≤ now
// ≤ every queued instant, every event in the slot place assigns it, list
// links and occupancy bits consistent, a live run sorted and holding its
// whole window, and Pending equal to the events actually queued.
func (e *Engine) checkWheel() error {
	if e.cur > e.now {
		return fmt.Errorf("cursor %d past clock %d", e.cur, e.now)
	}
	live := e.rh < e.rn
	queued := 0
	for j, r := range e.run[e.rh:e.rn] {
		ev := e.slab[r.id]
		switch {
		case j > 0 && r.at < e.run[e.rh+j-1].at:
			return fmt.Errorf("run entry %d at %d before its predecessor at %d", j, r.at, e.run[e.rh+j-1].at)
		case r.at < e.now || r.at > e.runLast:
			return fmt.Errorf("run entry %d at %d outside [clock %d, %d]", j, r.at, e.now, e.runLast)
		case ev.h == nil || ev.at != r.at:
			return fmt.Errorf("run entry %d: event %d at %d, its slab slot at %d with handler %v", j, r.id, r.at, ev.at, ev.h)
		}
		queued++
	}
	for i := range e.slots {
		k, s := uint(i)>>levelBits, uint(i)&slotMask
		sl := e.slots[i]
		if (sl.head == 0) != (sl.tail == 0) || (sl.head != 0) != (e.occ[k]>>s&1 == 1) {
			return fmt.Errorf("level %d slot %d: head %d tail %d occupancy bit %d", k, s, sl.head, sl.tail, e.occ[k]>>s&1)
		}
		prev := int32(0)
		for id := sl.head; id != 0; id = e.slab[id].next {
			ev := e.slab[id]
			if ev.prev != prev {
				return fmt.Errorf("event %d: prev %d, want %d", id, ev.prev, prev)
			}
			if ev.at < e.now {
				return fmt.Errorf("event %d at %d before clock %d", id, ev.at, e.now)
			}
			if pi := e.place(ev.at); pi != uint(i) {
				return fmt.Errorf("event %d at %d (cursor %d) sits in level %d slot %d, place says index %d", id, ev.at, e.cur, k, s, pi)
			}
			// The cursor lies in the run's window, so an event at a level
			// below the run's agrees with it on every bit above the window
			// and lies inside it: "after the window" is "levels below empty".
			if live && ev.at <= e.runLast {
				return fmt.Errorf("event %d at %d in level %d while the run holds every instant to %d", id, ev.at, k, e.runLast)
			}
			prev = id
			queued++
		}
		if prev != sl.tail {
			return fmt.Errorf("level %d slot %d: tail %d, list ends at %d", k, s, sl.tail, prev)
		}
	}
	if queued != e.pending {
		return fmt.Errorf("%d events queued, Pending %d", queued, e.pending)
	}
	return nil
}

func checkProgram(t *testing.T, prog []byte) {
	t.Helper()
	got, want := runProgram(newEngineQueue(), prog), runProgram(newRefQueue(), prog)
	if slices.Equal(got, want) {
		return
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("program %v\ntrace line %d:\n engine    %q\n reference %q", prog, i, g, w)
		}
	}
}

// spanOf and instantOf look table indices up by value, so the seeds below
// read as times, not as offsets.
func spanOf(d Time) byte    { return indexOf(spans, d) }
func instantOf(t Time) byte { return indexOf(instants, t) }
func indexOf(table []Time, v Time) byte {
	for i, x := range table {
		if x == v {
			return byte(i)
		}
	}
	panic(fmt.Sprint("not in table: ", v))
}

// orderSeeds are hand-written programs for the cases a wheel gets wrong.
func orderSeeds() [][]byte {
	var seeds [][]byte
	add := func(steps ...[4]byte) {
		var p []byte
		for _, s := range steps {
			p = append(p, s[:]...)
		}
		seeds = append(seeds, p)
	}
	// Instants one nanosecond before, on and after each 2^(6k) boundary,
	// scheduled far to near, then near to far, and fired in one Drain.
	var straddle [][4]byte
	for i := len(instants) - 1; i >= 0; i-- {
		for c := byte(0); c < 3; c++ {
			straddle = append(straddle, [4]byte{opAt, byte(i), actNone, c})
		}
	}
	for i := range instants {
		for c := byte(0); c < 3; c++ {
			straddle = append(straddle, [4]byte{opSchedule, byte(i), actNow, c})
		}
	}
	add(append(straddle, [4]byte{opDrain})...)
	// Same-instant FIFO across levels: the same far instant scheduled
	// before and after bounded runs moved the cursor towards it, each event
	// adding more at the instant it fires.
	add(
		[4]byte{opSchedule, instantOf(1 << 30), actNow, 1},
		[4]byte{opAt, instantOf(1 << 30), actNow, 1},
		[4]byte{opRun, instantOf(1 << 24), 1},
		[4]byte{opSchedule, instantOf(1 << 30), actStopLater, 1},
		[4]byte{opRun, instantOf(1 << 30), 1, 0}, // until = 2^30 exactly
		[4]byte{opAt, instantOf(1 << 30), actNow, 1},
		[4]byte{opDrain},
	)
	// Deltas of seconds to hours sit in the top levels; a bounded Run that
	// ends between events leaves the clock past the cursor, and scheduling
	// then must still order against what is queued.
	add(
		[4]byte{opAfter, spanOf(3600 * Second), actAfter, spanOf(60 * Second)},
		[4]byte{opSchedAfter, spanOf(60 * Second), actAfter, spanOf(3600 * Second)},
		[4]byte{opAfter, spanOf(1 << 58), actNone},
		[4]byte{opRun, spanOf(3 * Second)},
		[4]byte{opSchedAfter, spanOf(0), actNow},
		[4]byte{opAfter, spanOf(1), actNone},
		[4]byte{opRun, spanOf(60 * Second)},
		[4]byte{opSchedAfter, spanOf(63), actNone},
		[4]byte{opRun, spanOf(1 << 36)},
		[4]byte{opAfter, spanOf(-5 * Millisecond), actNow},
		[4]byte{opDrain},
	)
	// The clock must not run backwards: Run to an instant already passed,
	// with events still pending, then schedule relative to the clock.
	add(
		[4]byte{opAt, instantOf(Second), actNone, 1},
		[4]byte{opRun, instantOf(1 << 24), 1},
		[4]byte{opRun, instantOf(1 << 12), 1},
		[4]byte{opAfter, spanOf(Microsecond), actNone},
		[4]byte{opRun, instantOf(1 << 6), 1},
		[4]byte{opDrain},
	)
	// Stop: a handler stopping an event queued in its own slot, handles of
	// fired events, handles whose slab slot has been recycled by later
	// events, the zero Timer, and RTO-style restarts.
	add(
		[4]byte{opAt, instantOf(1 << 12), actStop, 2}, // stops the next one
		[4]byte{opAt, instantOf(1 << 12), actNone, 2},
		[4]byte{opAt, instantOf(1 << 12), actStopLater, 2},
		[4]byte{opAfter, spanOf(200 * Millisecond), actRestart, 4},
		[4]byte{opStop, 0},
		[4]byte{opRun, spanOf(Millisecond)},
		[4]byte{opStop, 1}, [4]byte{opStop, 2}, [4]byte{opStop, 3},
		[4]byte{opSchedAfter, spanOf(64), actNone}, // reuses a recycled slot
		[4]byte{opStop, 1}, [4]byte{opStop, 2}, [4]byte{opStop, 4}, [4]byte{opStop, 4},
		[4]byte{opDrain},
	)
	// Budget: trips before event n+1, only if one is due within the
	// horizon, also across a cascade; Engine.Stop from a handler.
	add(
		[4]byte{opSchedAfter, spanOf(100 * Microsecond), actNow},
		[4]byte{opSchedAfter, spanOf(100 * Microsecond), actHalt},
		[4]byte{opSchedAfter, spanOf(3 * Second), actNone},
		[4]byte{opBudget, 1},
		[4]byte{opRun, spanOf(12 * Microsecond)}, // nothing due: no trip
		[4]byte{opRun, spanOf(Millisecond)},      // one fires, then trips
		[4]byte{opAfter, spanOf(0), actNone},
		[4]byte{opBudget, 0},
		[4]byte{opRun, spanOf(Millisecond)}, // halts after the second event
		[4]byte{opBudget, 2},
		[4]byte{opRun, spanOf(Second)}, // the 3 s event lies beyond: no trip
		[4]byte{opDrain},
	)
	// The run. Level 3 slot 1 is [2^18, 2^19); from a clock of 4096 its
	// instants within reach are 2^18 and 2^18+1 (At) and 2^18+4095 and
	// 2^18+4096 (After). A cascaded slot of exactly runMax events, the
	// instants scheduled late to early, and one of runMax+1.
	var short [][4]byte
	for i := 0; i < runMax; i++ {
		switch i % 4 {
		case 0:
			short = append(short, [4]byte{opAfter, spanOf(1 << 18), actNone})
		case 1:
			short = append(short, [4]byte{opSchedAfter, spanOf(1<<18 - 1), actNow, 1})
		case 2:
			short = append(short, [4]byte{opAt, instantOf(1 << 18), actNone, 2})
		case 3:
			short = append(short, [4]byte{opSchedule, instantOf(1 << 18), actAfter, 1})
		}
	}
	runOf := func(body ...[4]byte) [][4]byte {
		return append([][4]byte{{opRun, spanOf(4096)}}, body...)
	}
	add(append(runOf(short...), [4]byte{opDrain})...)
	add(append(runOf(append(short, [4]byte{opAt, instantOf(1 << 18), actNone, 1})...), [4]byte{opDrain})...)
	// A bounded Run that ends inside a live run: until 2^18 cascades the
	// slot and the head, at 2^18+1, lies beyond. Then pushes before the
	// head (one of them into the past), at its instant, between its
	// entries, at the window's last instant and past the window; then
	// Stop of the run's head (handle 4), a middle (7) and its last event
	// (8), and of the event past the window (9).
	add(
		[4]byte{opAt, instantOf(1 << 18), actNone, 2},
		[4]byte{opRun, spanOf(4096)},
		[4]byte{opAfter, spanOf(1 << 18), actNone},
		[4]byte{opAt, instantOf(1 << 18), actNow, 2},
		[4]byte{opRun, instantOf(1 << 18), 1},
		[4]byte{opAt, instantOf(1 << 18), actNone, 0}, // 2^18-1: clamps to the clock
		[4]byte{opAfter, spanOf(0), actNow},
		[4]byte{opAt, instantOf(1 << 18), actNow, 2},
		[4]byte{opAfter, spanOf(4095), actNone},
		[4]byte{opAfter, spanOf(1<<18 - 1), actAfter, spanOf(1)},
		[4]byte{opAfter, spanOf(1 << 18), actNone},
		[4]byte{opStop, 4}, [4]byte{opStop, 7}, [4]byte{opStop, 8}, [4]byte{opStop, 9},
		[4]byte{opRun, spanOf(1)},
		[4]byte{opStop, 3}, [4]byte{opStop, 1},
		[4]byte{opDrain},
	)
	// A push into a full run spills it, same-instant entries among them;
	// the push after the spill goes to the wheel.
	full := [][4]byte{
		{opAt, instantOf(1 << 18), actNone, 2},
		{opRun, instantOf(1 << 18), 1},
	}
	for i := 0; i < runMax+1; i++ {
		full = append(full, [4]byte{opAfter, []byte{spanOf(4095), spanOf(1), spanOf(0), spanOf(64), spanOf(1)}[i%5], actNow})
	}
	add(append(full, [4]byte{opAfter, spanOf(1), actNone}, [4]byte{opDrain})...)
	// The budget trips while a run is live, two events into a slot of
	// runMax; pushes then find the run at the end of its array, so it
	// moves down twice before the third push spills it.
	add(append(runOf(short...),
		[4]byte{opBudget, 2},
		[4]byte{opRun, instantOf(1 << 24), 1},
		[4]byte{opAfter, spanOf(4095), actNone},
		[4]byte{opAfter, spanOf(0), actNone},
		[4]byte{opAfter, spanOf(4095), actNone},
		[4]byte{opBudget, 0},
		[4]byte{opDrain},
	)...)
	return seeds
}

func TestEngineMatchesReference(t *testing.T) {
	for i, seed := range orderSeeds() {
		t.Run(fmt.Sprint("seed", i), func(t *testing.T) { checkProgram(t, seed) })
	}
	rng := rand.New(rand.NewSource(12))
	n := 2000
	if testing.Short() {
		n = 200
	}
	for i := 0; i < n; i++ {
		prog := make([]byte, 4*(1+rng.Intn(64)))
		rng.Read(prog)
		checkProgram(t, prog)
	}
}

func FuzzEngineOrder(f *testing.F) {
	for _, seed := range orderSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { checkProgram(t, prog) })
}

// TestPlaceCoversEveryInstant pins the geometry: under any cursor, every
// later instant has a level below levels, and lands in a slot after the
// cursor's own at that level (invariant 2).
func TestPlaceCoversEveryInstant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		e := &Engine{cur: Time(rng.Int63() >> uint(rng.Intn(63)))}
		at := e.cur + Time(rng.Int63()>>uint(rng.Intn(63)))
		if at < e.cur {
			at = maxTime
		}
		idx := e.place(at)
		k := idx >> levelBits
		if k >= levels {
			t.Fatalf("place(%d) under cursor %d = level %d", at, e.cur, k)
		}
		shift := k * levelBits
		if at>>(shift+levelBits) != e.cur>>(shift+levelBits) {
			t.Fatalf("instant %d and cursor %d differ above group %d", at, e.cur, k)
		}
		slot, curSlot := idx&slotMask, uint(e.cur>>shift)&slotMask
		if slot < curSlot || (slot == curSlot && at != e.cur) {
			t.Fatalf("instant %d: slot %d of level %d not after the cursor's %d", at, slot, k, curSlot)
		}
	}
	if got := bits.Len64(uint64(maxTime)); got > levels*levelBits {
		t.Fatalf("a Time has %d value bits, the wheel covers %d", got, levels*levelBits)
	}
}

// TestShortSlotFiresFromRun pins the run itself: a cascaded slot of runMax
// events fires in instant order from the run, with every level below the
// slot's empty throughout, while a slot of runMax+1 cascades down the wheel.
func TestShortSlotFiresFromRun(t *testing.T) {
	for _, n := range []int{runMax, runMax + 1} {
		e := NewEngine(1)
		var order []Time
		lowEmpty := true
		for i := range n {
			// Instants in [2^18, 2^19), scheduled late to early: level 3
			// slot 1 under the cursor at 0.
			at := 1<<18 + Time(n-i)*1000
			if i == 0 && e.place(at)>>levelBits != 3 {
				t.Fatalf("instant %d is not in level 3", at)
			}
			e.Schedule(at, func() {
				order = append(order, e.Now())
				lowEmpty = lowEmpty && e.occ[0]|e.occ[1]|e.occ[2] == 0
				if err := e.checkWheel(); err != nil {
					t.Fatal(err)
				}
			})
		}
		e.Drain()
		if len(order) != n || !slices.IsSorted(order) {
			t.Fatalf("%d events fired at %v, want %d in instant order", len(order), order, n)
		}
		if fromRun := n <= runMax; lowEmpty != fromRun {
			t.Errorf("slot of %d events: levels below it empty throughout = %v, want %v", n, lowEmpty, fromRun)
		}
	}
}

// TestDeadlineStopInRun stops a deadline whose tick sits in a live run, and
// lets another chase a later deadline into it.
func TestDeadlineStopInRun(t *testing.T) {
	e := NewEngine(1)
	var log []Time
	d1 := MakeDeadline(e, func() { t.Error("a stopped deadline fired") })
	d2 := MakeDeadline(e, func() { log = append(log, e.Now()) })
	d1.Set(1<<18 + 10)
	d2.Set(1<<18 + 20)
	e.Schedule(1<<18+5, func() { log = append(log, e.Now()) })
	e.Run(1 << 18) // the slot becomes the run; its head lies beyond until
	if e.rn-e.rh != 3 {
		t.Fatalf("run holds %d events, want 3", e.rn-e.rh)
	}
	d1.Stop()
	d2.Set(1<<18 + 30) // the tick at +20 re-queues itself into the run
	if err := e.checkWheel(); err != nil || e.Pending() != 2 {
		t.Fatalf("after Stop: %v, Pending %d, want 2", err, e.Pending())
	}
	e.Drain()
	if !slices.Equal(log, []Time{1<<18 + 5, 1<<18 + 30}) || e.Processed() != 3 || e.Pending() != 0 {
		t.Errorf("fired at %v after %d events, %d pending", log, e.Processed(), e.Pending())
	}
}
