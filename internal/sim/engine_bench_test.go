package sim

import (
	"fmt"
	"testing"
)

// The Engine benchmarks are the perf contract of the hot path: schedule and
// fire must stay allocation-free in steady state (b.ReportAllocs enforces it
// in review), and events/sec across these shapes is the number the BENCH
// JSON trajectory tracks. CI runs them with -bench=Engine.

// BenchmarkEngineScheduleFire is the minimal self-rescheduling tick: the
// queue holds one event, so this isolates per-event fixed cost (link, level
// search, unlink, recycle, dispatch) — the wheel's worst case against a heap.
func BenchmarkEngineScheduleFire(b *testing.B) {
	eng := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		eng.ScheduleAfter(Microsecond, tick)
	}
	eng.ScheduleAfter(Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run(Time(b.N) * Microsecond)
	if n == 0 {
		b.Fatal("no events ran")
	}
	b.ReportMetric(float64(n)/float64(b.N), "events/op")
}

// ticker is an object that is its own event: it reschedules itself each time
// it fires.
type ticker struct {
	eng *Engine
	n   int
}

func (t *ticker) Fire() {
	t.n++
	t.eng.AtHandler(t.eng.Now()+Microsecond, t)
}

// BenchmarkEngineHandler is BenchmarkEngineScheduleFire for the two kinds of
// event the slab holds: an object scheduled through AtHandler, which the loop
// calls directly, and a func() scheduled through At, which goes through Func
// and pays a second indirect call. Neither may allocate.
func BenchmarkEngineHandler(b *testing.B) {
	run := func(b *testing.B, start func(eng *Engine) (fired *int)) {
		eng := NewEngine(1)
		fired := start(eng)
		step := func() { eng.Run(eng.Now() + 64*Microsecond) }
		if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
			b.Fatalf("%v allocations per 64 events, want 0", allocs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		eng.Run(eng.Now() + Time(b.N)*Microsecond)
		if *fired < b.N {
			b.Fatalf("fired %d events, want at least %d", *fired, b.N)
		}
	}
	b.Run("Handler", func(b *testing.B) {
		run(b, func(eng *Engine) *int {
			t := &ticker{eng: eng}
			eng.AtHandler(Microsecond, t)
			return &t.n
		})
	})
	b.Run("Func", func(b *testing.B) {
		run(b, func(eng *Engine) *int {
			n := 0
			var tick func()
			tick = func() {
				n++
				eng.At(eng.Now()+Microsecond, tick)
			}
			eng.At(Microsecond, tick)
			return &n
		})
	})
}

// BenchmarkEngineTicker is the same loop through Ticker, the form every
// periodic owner uses: a Handler that calls a func(), so it should sit between
// the two lines of BenchmarkEngineHandler, and may not allocate either.
func BenchmarkEngineTicker(b *testing.B) {
	eng := NewEngine(1)
	n := 0
	tk := MakeTicker(eng, Microsecond, func() { n++ })
	tk.Start()
	step := func() { eng.Run(eng.Now() + 64*Microsecond) }
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		b.Fatalf("%v allocations per 64 ticks, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run(eng.Now() + Time(b.N)*Microsecond)
	if n < b.N {
		b.Fatalf("fired %d ticks, want at least %d", n, b.N)
	}
}

// benchDeepQueue keeps depth self-rescheduling events in flight, event i
// every period(i), and measures one schedule plus one fire at that depth,
// once every event has fired.
func benchDeepQueue(b *testing.B, depth int, period func(i int) Time) {
	eng := NewEngine(1)
	fired, target := 0, -1
	var longest Time
	for i := 0; i < depth; i++ {
		d := period(i)
		longest = max(longest, d)
		var tick func()
		tick = func() {
			fired++
			if fired == target {
				eng.Stop()
			}
			eng.ScheduleAfter(d, tick)
		}
		eng.ScheduleAfter(d, tick)
	}
	eng.Run(longest)
	timeEvents(b, eng, &fired, &target)
}

// timeEvents times b.N events of an engine whose handlers count into fired
// and call Stop on reaching target, after a warm-up in which every event
// has fired once, so that the slab is at its size.
func timeEvents(b *testing.B, eng *Engine, fired, target *int) {
	eng.Run(8 * Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	*target = *fired + b.N
	eng.Run(eng.Now() + Time(b.N+8)*Second)
	if *fired != *target {
		b.Fatalf("fired %d events, want %d", *fired, *target)
	}
}

// BenchmarkEngineDeepQueue keeps 1024 events in flight on seven distinct
// microsecond periods, so they share a handful of instants: long same-instant
// runs, which the wheel serves from seven hot slots.
func BenchmarkEngineDeepQueue(b *testing.B) {
	benchDeepQueue(b, 1024, func(i int) Time { return Time(1+i%7) * Microsecond })
}

// staggered spreads periods over 1–7 µs at nanosecond grain, so instants
// rarely tie and events spread over the wheel's slots the way a figure
// run's link, meter and transport events do.
func staggered(i int) Time { return Microsecond + Time(i*7919%6007) }

// BenchmarkEngineDeepQueue4k is the pending depth of the datacenter runs
// (1.1 k–4.2 k events): the shape the packet figures spend their time in.
func BenchmarkEngineDeepQueue4k(b *testing.B) { benchDeepQueue(b, 4<<10, staggered) }

// BenchmarkEngineDeepQueue64k is a queue that no longer fits the L2 cache:
// cost per event must stay flat in depth, up to cache misses.
func BenchmarkEngineDeepQueue64k(b *testing.B) { benchDeepQueue(b, 64<<10, staggered) }

// BenchmarkEngineDeepQueueMs schedules at the packet workloads' own
// timescale rather than the microseconds above: periods of 10–60 ms at
// nanosecond grain, so pushes land in the wheel's upper levels the way
// dc-fattree's (72 % at level 3) and sweep-hybrid's (67 % at level 4) do,
// with 64 and 256 events in flight (faults-observed's and sweep-hybrid's
// depths, where most slots are short enough to fire from a run), 1024 and
// 16384. Subtests are named by that event count.
func BenchmarkEngineDeepQueueMs(b *testing.B) {
	for _, depth := range []int{64, 256, 1 << 10, 16 << 10} {
		b.Run(fmt.Sprint(depth), func(b *testing.B) {
			benchDeepQueue(b, depth, func(i int) Time { return 10*Millisecond + Time(i*7919%50_000_017) })
		})
	}
}

// BenchmarkEngineTimerRestart is the retransmission-timer idiom under
// traffic: each of 256 flows keeps one timer 200 ms ahead and, on every
// packet event, stops and rearms it — At far ahead, Stop, At — so the timers
// live in an upper level and are unlinked from lists other timers share.
func BenchmarkEngineTimerRestart(b *testing.B) {
	const flows = 256
	eng := NewEngine(1)
	fired, target := 0, -1
	expire := func() {}
	for i := 0; i < flows; i++ {
		d := staggered(i)
		rto := eng.After(200*Millisecond, expire)
		var ack func()
		ack = func() {
			fired++
			if fired == target {
				eng.Stop()
			}
			rto.Stop()
			rto = eng.At(eng.Now()+200*Millisecond, expire)
			eng.ScheduleAfter(d, ack)
		}
		eng.ScheduleAfter(d, ack)
	}
	timeEvents(b, eng, &fired, &target)
}

// BenchmarkEngineTimerChurn is the rearm-heavy pattern transports generate:
// schedule far ahead, cancel, reschedule. Cancelled timers must leave the
// queue rather than accumulate.
func BenchmarkEngineTimerChurn(b *testing.B) {
	eng := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	var tm Timer
	for i := 0; i < b.N; i++ {
		tm.Stop()
		tm = eng.After(Second, fn)
		if i%64 == 0 {
			eng.Run(eng.Now() + Microsecond)
		}
	}
}

// BenchmarkEngineTimerFire schedules tracked timers that actually fire, so
// the timer-handle path (not just Schedule) is covered by the recycle pool.
func BenchmarkEngineTimerFire(b *testing.B) {
	eng := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(Microsecond, fn)
		if i%64 == 63 {
			eng.Run(eng.Now() + 2*Microsecond)
		}
	}
	b.StopTimer()
	eng.Drain()
}
