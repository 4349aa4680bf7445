package sim

import (
	"testing"
	"unsafe"
)

// TestSlabEventLayout pins the slab slot the hop path pays for: 40 bytes, and
// what firing an event waits for — its list links, then its handler — in the
// first 24 of them, so a slot that straddles a cache line seldom costs two
// misses. (The packet's and the link's halves of the budget are netem's
// TestHopLayout.)
func TestSlabEventLayout(t *testing.T) {
	var ev slabEvent
	if got := unsafe.Sizeof(ev); got > 40 {
		t.Errorf("slabEvent is %d bytes, budget 40", got)
	}
	for name, end := range map[string]uintptr{
		"h":    unsafe.Offsetof(ev.h) + unsafe.Sizeof(ev.h),
		"next": unsafe.Offsetof(ev.next) + unsafe.Sizeof(ev.next),
		"prev": unsafe.Offsetof(ev.prev) + unsafe.Sizeof(ev.prev),
	} {
		if end > 24 {
			t.Errorf("slabEvent.%s ends at byte %d, past the 24 a fire may wait for", name, end)
		}
	}
}

// TestHandlerAndFuncShareOneQueue schedules an object and a func for the same
// instants: both are one kind of slab event, so they fire in schedule order.
func TestHandlerAndFuncShareOneQueue(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.AtHandler(Millisecond, Func(func() { order = append(order, 0) }))
	e.At(Millisecond, func() { order = append(order, 1) })
	tm := e.AtHandler(Millisecond, Func(func() { order = append(order, -1) }))
	e.AtHandler(Millisecond, Func(func() { order = append(order, 2) }))
	if !tm.Stop() {
		t.Fatal("Stop on a pending handler event reported false")
	}
	e.Run(Second)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v, want [0 1 2]", order)
	}
}

func TestScheduleRunsLikeAt(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(2*Millisecond, func() { order = append(order, 2) })
	e.ScheduleAfter(Millisecond, func() { order = append(order, 1) })
	e.Run(Second)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}

func TestRecyclingPreservesOrderingUnderChurn(t *testing.T) {
	// Heavy schedule/fire churn exercises the free list; ordering and
	// counts must be unaffected.
	e := NewEngine(1)
	fired := 0
	var last Time
	var spawn func()
	spawn = func() {
		fired++
		if now := e.Now(); now < last {
			t.Fatalf("time went backwards: %v after %v", now, last)
		} else {
			last = now
		}
		if fired < 5000 {
			e.ScheduleAfter(Time(fired%7)*Microsecond, spawn)
		}
	}
	e.Schedule(0, spawn)
	e.Drain()
	if fired != 5000 {
		t.Fatalf("fired %d events, want 5000", fired)
	}
}

func TestTrackedTimersSurviveRecycling(t *testing.T) {
	// A Timer handle must stay valid (and Stop must work) even while
	// untracked events churn through the free list.
	e := NewEngine(1)
	var fired bool
	tm := e.At(Millisecond, func() { fired = true })
	for i := 0; i < 100; i++ {
		e.Schedule(Time(i)*Microsecond, func() {})
	}
	e.Run(500 * Microsecond)
	if !tm.Stop() {
		t.Fatal("Stop on pending tracked timer failed")
	}
	e.Run(Second)
	if fired {
		t.Fatal("stopped tracked timer fired after churn")
	}
}

func TestCancelledEventIsRecycledNotRun(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	tm := e.At(Millisecond, func() { ran++ })
	tm.Stop()
	// Fill and drain the queue a few times.
	for round := 0; round < 3; round++ {
		for i := 0; i < 50; i++ {
			e.ScheduleAfter(Time(i)*Microsecond, func() { ran++ })
		}
		e.Run(e.Now() + Millisecond)
	}
	if ran != 150 {
		t.Fatalf("ran %d events, want exactly 150 (cancelled one excluded)", ran)
	}
}
