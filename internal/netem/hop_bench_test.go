package netem

import (
	"testing"

	"mptcpsim/internal/sim"
)

// hopLoop is the endpoint of BenchmarkHopCold: it sends every packet that
// reaches it round its path again, unless it is parking them.
type hopLoop struct {
	eng             *sim.Engine
	paths           [][]*Link
	park            bool
	laps, stopAfter int
}

func (h *hopLoop) Receive(p *Packet) {
	if h.park {
		return
	}
	if h.laps++; h.laps == h.stopAfter {
		h.eng.Stop()
	}
	p.SetRoute(h.paths[p.Flow], h)
	p.Send()
}

// BenchmarkHopCold measures a hop the way a datacenter run pays for it: the
// packet, its event and the link it enters were all last touched many events
// ago. 4096 disjoint 6-hop paths carry 8 packets each; every packet hops once
// per millisecond, one after the other (10 ns apart, and 40 µs apart on one
// path, so queues hold at most one packet), which makes the order
// round-robin: between two hops of a packet the 32767 others hop, and a link
// is entered about once per 24000 events. The paths take their turns in a
// shuffled order, after one lap in allocation order, so neither packets and
// links nor what they build on first use (a ring's array) are met in the
// order they were allocated and the prefetcher cannot hide the misses — as in
// a run, where pools hand packets out in no order. One round touches some
// 9 MB of packets, events, links and rings — several times the L2 cache —
// where the benchmark's netem.link_pkt_ns and netem.path6_pkt_ns keep one
// link or path hot and so time instructions, not layout. Reports ns per hop
// event and fails if a round allocates.
func BenchmarkHopCold(b *testing.B) {
	const (
		nPaths  = 4096
		perPath = 8
		hops    = 6
		gap     = 10 * sim.Nanosecond
	)
	eng := sim.NewEngine(1)
	loop := &hopLoop{eng: eng, paths: make([][]*Link, nPaths), stopAfter: -1}
	for i := range loop.paths {
		for j := 0; j < hops; j++ {
			loop.paths[i] = append(loop.paths[i], NewLink(eng, LinkConfig{Rate: 10 * Gbps, Delay: sim.Millisecond}))
		}
	}
	pkts := make([]*Packet, nPaths*perPath)
	for i := range pkts {
		pkts[i] = &Packet{Flow: uint64(i % nPaths), Size: 1500}
	}
	start := func(slot func(i int) int) {
		for i, p := range pkts {
			p.SetRoute(loop.paths[p.Flow], loop)
			eng.Schedule(eng.Now()+sim.Time(slot(i))*gap, p.Send)
		}
	}
	loop.park = true
	start(func(i int) int { return i })
	eng.Run(2 * hops * sim.Millisecond) // every link's ring and the slab are at their size
	loop.park = false
	turn := eng.Rand().Perm(nPaths)
	start(func(i int) int { return i/nPaths*nPaths + turn[i%nPaths] })
	eng.Run(eng.Now() + hops*sim.Millisecond)
	round := func() { eng.Run(eng.Now() + sim.Millisecond) }
	if allocs := testing.AllocsPerRun(1, round); allocs != 0 {
		b.Fatalf("%v allocations per round of %d hops, want 0", allocs, nPaths*perPath)
	}

	events := eng.Processed()
	loop.stopAfter = loop.laps + (b.N+hops-1)/hops
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run(1 << 62)
	b.StopTimer()
	if loop.laps < loop.stopAfter {
		b.Fatalf("ran %d laps, want %d", loop.laps, loop.stopAfter)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(eng.Processed()-events), "ns/hop")
}
