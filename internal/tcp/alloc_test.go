package tcp

import (
	"testing"

	"mptcpsim/internal/core"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// TestSubflowSteadyStatePacketPathAllocs asserts the full data/ACK round
// trip — segment emission from the path pool, link queueing and forwarding,
// receiver SACK bookkeeping, ACK generation and the sender's per-ACK
// processing, including AIMD sawtooth losses and retransmissions — runs
// allocation-free once warmed up: the packet pool's free list covers the
// peak window after the first loss, and every slice (retransmit episode,
// reorder buffer, event slab, pool free list) has reached its steady
// capacity.
func TestSubflowSteadyStatePacketPathAllocs(t *testing.T) {
	eng := sim.NewEngine(1)
	fwd := netem.NewLink(eng, netem.LinkConfig{Name: "f", Rate: 50 * netem.Mbps, Delay: 10 * sim.Millisecond, QueueLimit: 64})
	rev := netem.NewLink(eng, netem.LinkConfig{Name: "r", Rate: 50 * netem.Mbps, Delay: 10 * sim.Millisecond, QueueLimit: 64})
	p := &netem.Path{Name: "p", Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
	coord := &stubCoord{alg: core.NewReno(), remaining: -1}
	s := NewSubflow(eng, Config{}, coord, 1, 0, p)
	coord.sub = s
	s.Start()

	// Warm up through slow start and several loss episodes so all pools and
	// slices are at their sawtooth-peak capacity.
	eng.Run(30 * sim.Second)

	next := eng.Now()
	avg := testing.AllocsPerRun(50, func() {
		next += 100 * sim.Millisecond
		eng.Run(next)
	})
	if avg != 0 {
		t.Errorf("steady-state packet path allocates %.2f times per 100ms window, want 0", avg)
	}
}

// BenchmarkSubflowSteadyState drives the warmed-up data/ACK loop; allocs/op
// is the headline (must be 0), ns/op tracks per-event transport cost.
func BenchmarkSubflowSteadyState(b *testing.B) {
	eng := sim.NewEngine(1)
	fwd := netem.NewLink(eng, netem.LinkConfig{Name: "f", Rate: 50 * netem.Mbps, Delay: 10 * sim.Millisecond, QueueLimit: 64})
	rev := netem.NewLink(eng, netem.LinkConfig{Name: "r", Rate: 50 * netem.Mbps, Delay: 10 * sim.Millisecond, QueueLimit: 64})
	p := &netem.Path{Name: "p", Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
	coord := &stubCoord{alg: core.NewReno(), remaining: -1}
	s := NewSubflow(eng, Config{}, coord, 1, 0, p)
	coord.sub = s
	s.Start()
	eng.Run(30 * sim.Second)

	b.ReportAllocs()
	b.ResetTimer()
	next := eng.Now()
	for i := 0; i < b.N; i++ {
		next += sim.Millisecond
		eng.Run(next)
	}
}
