// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock from event to event. Events scheduled
// for the same instant run in the order they were scheduled, which — together
// with a random source seeded from the engine's seed on its first use —
// makes every run fully reproducible.
//
// # The event queue
//
// Pending events sit in one hierarchical timing wheel: 11 levels of 64 slots
// (66 bits, covering every non-negative Time), level k indexed by bits
// [6k, 6k+6) of the event's instant — its "group k". A slot is a
// doubly-linked list threaded through the event slab, and each level keeps a
// 64-bit occupancy word, so schedule, fire and Timer.Stop are O(1) relinks
// with no key comparisons. The wheel keeps four invariants:
//
//  1. cursor ≤ Now() ≤ the instant of every queued event.
//  2. An event at level k agrees with the cursor on every bit above group k
//     and is greater in group k (at level 0: greater or equal). Level and
//     slot are therefore a function of (instant, cursor) alone, see place:
//     two events for one instant always share a list, Stop finds an event's
//     list without storing it, every event of a lower level precedes every
//     event of a higher one, and within a level slot order is time order.
//  3. A slot is cascaded — the cursor moved into its window (to its start,
//     or straight to the instant of the slot's only event, which then
//     fires) and its events taken out — only while every lower level is
//     empty. A slot of more than runMax events is relinked by place, one
//     level or more down; a shorter one becomes the run.
//  4. The run is a short cascaded slot's events in a fixed array on the
//     Engine, sorted by instant, stably. While it holds an event it holds
//     every queued event up to runLast, the last instant of its slot's
//     window, and every level below that slot's stays empty: the next
//     event is the run's head.
//
// Why lists stay in schedule order: a list changes by a tail append (a new
// event, scheduled after all that are queued), by an unlink (fire or Stop),
// or by a cascade, which walks its list front to back and appends into lists
// that invariant 3 found empty. None of the three reorders two events that
// stay queued, and by invariant 2 events of one instant never part, so they
// leave in the order they were scheduled. A level-0 slot is one exact
// nanosecond: the head of the first occupied one is the next event, and
// same-instant FIFO needs no sequence number.
//
// Why the run keeps that order: it is sorted from one list, stably, so
// events of one instant keep their list order. Everything in it was queued
// when its slot was cascaded or pushed into it since, so a push at or before
// runLast joins it behind every entry at or before its instant; Stop of a
// run event finds it by a scan of at most runMax entries. A push into a full
// run first spills the run into the wheel in run order — into the empty
// levels below, which keeps lists in schedule order — and is then linked.
//
// Cost: an event is relinked once per level between the one it entered and
// the first whose slot is short enough to fire from the run (or level 0),
// whatever the queue depth, where a heap pays log(depth) unpredictable
// compares. At the 100 µs deltas of a packet run that is 0.69 relinks per
// fired event on the benchmark's sweep-hybrid workload, 0.45 on
// faults-observed and 0.54 on churn-mice (2.21, 2.07 and 1.07 without the
// run), and 1.83 on dc-fattree (2.52), 4k–16k events deep. A near-empty
// queue is the one shape a heap serves faster: link, level search and
// unlink cost more than a one-element heap's push and pop.
//
// # What an event is
//
// A slab slot holds a Handler, and the loop calls its Fire. An object that is
// scheduled again and again implements Handler and is scheduled as itself
// (AtHandler): a packet is its own hop event, so firing it loads the slot and
// then the packet, with no closure object between the two — by the time a
// queued event fires, every one of those loads misses the cache. At, After,
// Schedule and ScheduleAfter take a func() and wrap it in Func; such events
// (timers, arrivals) pay one more indirect call, Func.Fire's.
//
// # Periodic work
//
// Work done every period — a meter integrating, a recorder sampling, a
// generator's packet clock — runs on a Ticker, which is its own Handler. A
// tick calls fn and only then queues the next one, behind whatever fn
// scheduled for that instant. Stop unlinks the queued tick, from inside fn
// too: a stopped owner has nothing in Pending, and a later Start begins a
// fresh chain one period from then.
//
// # Deadlines
//
// Work due at an instant that keeps moving — a retransmission timeout every
// ACK pushes back — runs on a Deadline, chased lazily as kernels do: Set on an
// idle deadline queues a tick at once, Set on a queued one only records the
// instant, and a tick that fires early re-queues itself there. A deadline
// moved earlier than its tick fires at the tick. Stop unlinks the tick, so an
// owner that is done has nothing in Pending.
package sim

import (
	"math/bits"
	"math/rand"
	"time"
)

// Time is a simulated instant, measured in nanoseconds from the start of the
// run. It is deliberately distinct from time.Time: simulated time has no
// calendar and starts at zero.
type Time int64

// Common durations converted to simulated time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// FromDuration converts a wall-clock duration to simulated time.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Duration converts simulated time to a time.Duration for display.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports the instant as fractional seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Wheel geometry. The constants are fixed: levels × levelBits must cover the
// 63 value bits of a Time.
const (
	levelBits      = 6
	slotMask       = 1<<levelBits - 1
	levels         = 11
	maxTime   Time = 1<<63 - 1
)

// runMax is the longest slot a cascade fires from a run instead of relinking
// down the wheel (package comment, "The event queue"). 8 and 64 measure the
// same as 16 end to end; 64 makes the insertion sort cost deep queues what
// it saves shallow ones. The run array is 16 bytes an entry on the Engine.
const runMax = 16

// Handler is what an event is: the engine calls Fire once, at the event's
// instant (package comment, "What an event is").
type Handler interface{ Fire() }

// Func adapts a plain function to Handler. A func value is pointer-shaped,
// so the conversion does not allocate.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// slabEvent is an event's slab slot, 40 bytes. gen is bumped on each recycle
// so a stale Timer handle can tell its event has moved on; next and prev link
// the event into its wheel slot (next also threads the free list). Slab id 0
// is never handed out: it is the nil link. A 40-byte slot can straddle a
// cache line, so what firing waits for (the links, then h) is the first 24
// bytes and what it only writes (gen) the last 8.
type slabEvent struct {
	h          Handler
	next, prev int32
	at         Time
	gen        uint64
}

// slot is one wheel slot: the ends of its event list, 0 when empty.
type slot struct{ head, tail int32 }

// runEntry is a queued event of the run, with its instant copied beside it so
// that inserting and cancelling scan the run alone, not the slab.
type runEntry struct {
	at Time
	id int32
}

// Timer is a handle to a scheduled event that can be cancelled before it
// fires. The zero value is an inert timer: Stop and Active are no-ops on it.
type Timer struct {
	eng *Engine
	id  int32
	gen uint64
}

// Stop cancels the timer, unlinking its event from the queue immediately. It
// reports whether the event had not yet fired. Stopping an already-fired or
// already-stopped timer is a no-op: the generation counter on the recycled
// slab slot makes a stale handle harmless even after the slot is reused.
func (t Timer) Stop() bool {
	if !t.Active() {
		return false
	}
	t.eng.cancel(t.id)
	return true
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	return t.eng != nil && t.eng.slab[t.id].gen == t.gen
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; a simulation run owns exactly one engine. Independent
// engines may run on separate goroutines, as internal/supervise's Map runs
// them.
type Engine struct {
	now  Time
	cur  Time // wheel cursor: the instant of the last fire or cascade
	seed int64
	rng  *rand.Rand // seeded from seed by the first Rand call

	slab    []slabEvent // all live and free event slots; slab[0] is the nil link
	free    int32       // head of the recycled-slot list, linked through next
	pending int

	occ   [levels]uint64 // bit s of occ[k]: slot s of level k is non-empty
	slots [levels << levelBits]slot

	// The run (invariant 4) is run[rh:rn]; it is live while rh < rn.
	// runLast is inclusive because the end of the last window, 2^63, is
	// not a Time.
	run     [runMax]runEntry
	rh, rn  int
	runLast Time

	processed uint64
	stopped   bool

	maxProcessed uint64 // 0 = unlimited
	onBudget     func()
}

// NewEngine returns an engine whose random source is seeded with seed. The
// source is built by the first Rand call, so an engine nothing draws from
// (one that only builds a topology) never pays for seeding it.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed, slab: make([]slabEvent, 1)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source: the same
// *rand.Rand on every call, drawing what rand.New(rand.NewSource(seed))
// draws whenever it is first called.
func (e *Engine) Rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.seed))
	}
	return e.rng
}

// Processed reports how many events have run so far.
func (e *Engine) Processed() uint64 { return e.processed }

// At schedules fn to run at instant t. Scheduling in the past runs the event
// at the current time (it cannot rewind the clock). It returns a cancellable
// timer handle.
func (e *Engine) At(t Time, fn func()) Timer {
	return e.AtHandler(t, Func(fn))
}

// AtHandler is At for an event that is an object rather than a function: h
// fires at instant t without the adapter's second indirect call.
func (e *Engine) AtHandler(t Time, h Handler) Timer {
	id := e.push(t, h)
	return Timer{eng: e, id: id, gen: e.slab[id].gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) Timer {
	return e.At(e.now+d, fn)
}

// Schedule is the no-handle variant of At, for events that never need
// cancelling.
func (e *Engine) Schedule(t Time, fn func()) {
	e.push(t, Func(fn))
}

// ScheduleAfter is Schedule relative to the current time.
func (e *Engine) ScheduleAfter(d Time, fn func()) {
	e.push(e.now+d, Func(fn))
}

func (e *Engine) push(t Time, h Handler) int32 {
	id := e.free
	if id != 0 {
		e.free = e.slab[id].next
	} else {
		e.slab = append(e.slab, slabEvent{})
		id = int32(len(e.slab) - 1)
	}
	if t < e.now {
		t = e.now // invariant 1
	}
	ev := &e.slab[id]
	ev.h, ev.at = h, t
	switch {
	case e.rh == e.rn || t > e.runLast:
		e.link(id)
	case e.rn-e.rh == runMax:
		e.spill()
		e.link(id)
	default:
		e.insert(id, t)
	}
	e.pending++
	return id
}

// cancel unlinks queued event id and retires its slab slot.
func (e *Engine) cancel(id int32) {
	if at := e.slab[id].at; e.rh == e.rn || at > e.runLast {
		e.unlink(id, e.place(at))
	} else {
		j := e.rh
		for e.run[j].id != id {
			j++
		}
		copy(e.run[j:e.rn], e.run[j+1:e.rn])
		e.rn--
	}
	e.recycle(id)
}

// recycle retires an unlinked event's slab slot: the generation bump
// invalidates every outstanding Timer handle for this incarnation.
func (e *Engine) recycle(id int32) {
	ev := &e.slab[id]
	ev.h = nil
	ev.gen++
	ev.next = e.free
	e.free = id
	e.pending--
}

// place returns the slot invariant 2 assigns to instant at under the current
// cursor, as an index into slots: level<<levelBits | slot within the level.
func (e *Engine) place(at Time) uint {
	k := uint(bits.Len64(uint64(at^e.cur)|1)-1) / levelBits
	return k<<levelBits | uint(at>>(k*levelBits))&slotMask
}

// link appends event id to the tail of its slot's list.
func (e *Engine) link(id int32) {
	ev := &e.slab[id]
	i := e.place(ev.at)
	sl := &e.slots[i]
	ev.prev, ev.next = sl.tail, 0
	if sl.tail != 0 {
		e.slab[sl.tail].next = id
	} else {
		sl.head = id
		e.occ[i>>levelBits] |= 1 << (i & slotMask)
	}
	sl.tail = id
}

// unlink removes event id from the list of slots[i].
func (e *Engine) unlink(id int32, i uint) {
	ev, sl := &e.slab[id], &e.slots[i]
	if ev.prev != 0 {
		e.slab[ev.prev].next = ev.next
	} else {
		sl.head = ev.next
	}
	if ev.next != 0 {
		e.slab[ev.next].prev = ev.prev
	} else {
		sl.tail = ev.prev
	}
	if sl.head == 0 {
		e.occ[i>>levelBits] &^= 1 << (i & slotMask)
	}
}

// insert puts event id, at instant at, into the run behind every entry at or
// before at: it was scheduled after all of them. The run has room.
func (e *Engine) insert(id int32, at Time) {
	if e.rn == runMax {
		e.rn = copy(e.run[:], e.run[e.rh:e.rn])
		e.rh = 0
	}
	j := e.rn
	for j > e.rh && e.run[j-1].at > at {
		e.run[j] = e.run[j-1]
		j--
	}
	e.run[j] = runEntry{at, id}
	e.rn++
}

// spill links the run's events into the wheel in run order, which keeps
// events of one instant in the order they were scheduled, and ends the run.
func (e *Engine) spill() {
	for _, r := range e.run[e.rh:e.rn] {
		e.link(r.id)
	}
	e.rh, e.rn = 0, 0
}

// next unlinks and returns the earliest queued event, or 0 if there is none
// at or before until. It advances the cursor to that event's instant,
// cascading the slots whose windows the cursor enters on the way, but never
// past until — so the cursor cannot overtake the clock (invariant 1).
func (e *Engine) next(until Time) int32 {
	for {
		if e.rh < e.rn {
			r := e.run[e.rh]
			if r.at > until {
				return 0
			}
			e.cur = r.at
			e.rh++
			return r.id
		}
		if occ := e.occ[0]; occ != 0 {
			s := uint(bits.TrailingZeros64(occ))
			at := e.cur&^slotMask | Time(s)
			if at > until {
				return 0
			}
			e.cur = at
			id := e.slots[s].head
			e.unlink(id, s)
			return id
		}
		k := uint(1)
		for k < levels && e.occ[k] == 0 {
			k++
		}
		if k == levels {
			return 0
		}
		// By invariant 2 the first occupied slot of the lowest occupied
		// level holds the earliest events, and every level below is empty.
		s := uint(bits.TrailingZeros64(e.occ[k]))
		shift := k * levelBits
		sl := &e.slots[k<<levelBits|s]
		id, lone := sl.head, sl.head == sl.tail
		to := e.cur&^(1<<(shift+levelBits)-1) | Time(s)<<shift
		if lone {
			to = e.slab[id].at // the earliest event itself: skip the levels between
		}
		if to > until {
			return 0
		}
		e.cur = to
		*sl = slot{}
		e.occ[k] &^= 1 << s
		if lone {
			return id
		}
		n := 1
		for nx := e.slab[id].next; nx != 0 && n <= runMax; nx = e.slab[nx].next {
			n++
		}
		if n <= runMax {
			// A short slot becomes the run, which holds the whole window:
			// the levels below are empty and stay so while it is live.
			e.rh, e.rn, e.runLast = 0, 0, to|(1<<shift-1)
			for ; id != 0; id = e.slab[id].next {
				e.insert(id, e.slab[id].at)
			}
			continue
		}
		for id != 0 {
			nx := e.slab[id].next
			e.link(id)
			id = nx
		}
	}
}

// earliest reports the instant of the earliest queued event without moving
// the cursor: the run's head, or else the minimum over the list next would
// cascade or fire first.
func (e *Engine) earliest() Time {
	if e.rh < e.rn {
		return e.run[e.rh].at
	}
	at := maxTime
	for k, occ := range e.occ {
		if occ != 0 {
			i := k<<levelBits | bits.TrailingZeros64(occ)
			for id := e.slots[i].head; id != 0; id = e.slab[id].next {
				at = min(at, e.slab[id].at)
			}
			break
		}
	}
	return at
}

// Stop makes Run return after the event currently executing completes.
func (e *Engine) Stop() { e.stopped = true }

// SetEventBudget arms a hard cap on processed events: once n events have
// run, the loop calls trip before firing event n+1 instead of processing it.
// Unlike a watchdog scheduled in simulated time, the in-loop check also
// catches event storms that never advance the clock (events rescheduling
// themselves at the same instant would starve any sim-time watchdog).
// trip may panic to abort the run (internal/supervise does), or merely
// record the fact — if it returns, the loop stops as if Stop were called.
// n = 0 removes the budget. The budget counts lifetime processed events,
// not events since SetEventBudget.
func (e *Engine) SetEventBudget(n uint64, trip func()) {
	e.maxProcessed = n
	e.onBudget = trip
}

// Run executes events in timestamp order until the queue empties or the
// next event lies beyond until, then advances the clock to until — unless
// Stop or the event budget ended the run early, or the clock is already past
// until: the clock never moves backwards. It returns the clock.
func (e *Engine) Run(until Time) Time {
	e.loop(until)
	if e.now < until && !e.stopped {
		e.now = until
	}
	return e.now
}

// Drain runs every remaining event regardless of time, leaving the clock
// at the last event processed (so the engine stays usable afterwards).
// Intended for tests.
func (e *Engine) Drain() {
	e.loop(maxTime)
}

// loop is the shared dispatch cycle behind Run and Drain. Stopped timers
// leave the wheel at Stop time, so every event next returns fires.
func (e *Engine) loop(until Time) {
	e.stopped = false
	for !e.stopped {
		if e.maxProcessed != 0 && e.processed >= e.maxProcessed {
			// Out of budget: trip only if an event is due within the
			// horizon, and find that out without moving the cursor, which
			// next could leave past a clock that will not advance.
			if e.pending > 0 && e.earliest() <= until {
				if e.onBudget != nil {
					e.onBudget()
				}
				e.stopped = true
			}
			return
		}
		id := e.next(until)
		if id == 0 {
			return
		}
		e.now = e.cur
		h := e.slab[id].h
		e.recycle(id)
		e.processed++
		h.Fire()
	}
}

// Pending reports how many scheduled events remain queued. Stopped timers
// leave the count immediately, so they are never included.
func (e *Engine) Pending() int { return e.pending }
