package topo

import (
	"testing"

	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// TestNPathTwoPathEquivalence pins the builder contract the backend relies
// on: NPath with two equal-delay specs wires the same nodes, link names and
// rates as the registry's twopath entry, so a packet run over either is
// event-for-event identical — same acked counts, same engine event total.
func TestNPathTwoPathEquivalence(t *testing.T) {
	run := func(build func(eng *sim.Engine) []*netem.Path) (acked [2]int64, events uint64) {
		eng := sim.NewEngine(7)
		paths := build(eng)
		conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: "lia"}, 1, paths...)
		conn.Start()
		eng.Run(10 * sim.Second)
		for r, s := range conn.Subflows() {
			acked[r] = s.Acked()
		}
		return acked, eng.Processed()
	}

	twoAck, twoEv := run(func(eng *sim.Engine) []*netem.Path {
		net, err := Build(eng, "twopath", Params{
			Rates: [2]int64{16 * netem.Mbps, 8 * netem.Mbps},
			Delay: 20 * sim.Millisecond, Queue: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		return net.Paths(0, 1, 0)
	})
	nAck, nEv := run(func(eng *sim.Engine) []*netem.Path {
		return NewNPath(eng,
			NPathSpec{Rate: 16 * netem.Mbps, Delay: 20 * sim.Millisecond, Queue: 50},
			NPathSpec{Rate: 8 * netem.Mbps, Delay: 20 * sim.Millisecond, Queue: 50},
		).Paths()
	})
	if twoAck != nAck {
		t.Errorf("acked mismatch: TwoPath %v vs NPath %v", twoAck, nAck)
	}
	if twoEv != nEv {
		t.Errorf("event count mismatch: TwoPath %d vs NPath %d", twoEv, nEv)
	}
}

// TestNPathThreePaths exercises the generalization beyond two paths: three
// asymmetric paths all carry traffic, and the bottleneck ordering shows in
// the goodput ordering.
func TestNPathThreePaths(t *testing.T) {
	eng := sim.NewEngine(3)
	n := NewNPath(eng,
		NPathSpec{Rate: 24 * netem.Mbps},
		NPathSpec{Rate: 12 * netem.Mbps},
		NPathSpec{Rate: 6 * netem.Mbps},
	)
	if got := len(n.Paths()); got != 3 {
		t.Fatalf("got %d paths, want 3", got)
	}
	conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: "olia"}, 1, n.Paths()...)
	conn.Start()
	eng.Run(30 * sim.Second)
	subs := conn.Subflows()
	for r := 0; r+1 < len(subs); r++ {
		if subs[r].Acked() <= subs[r+1].Acked() {
			t.Errorf("path %d (faster) acked %d <= path %d acked %d",
				r, subs[r].Acked(), r+1, subs[r+1].Acked())
		}
	}
	for r, s := range subs {
		if s.Acked() == 0 {
			t.Errorf("path %d carried no traffic", r)
		}
	}
	if got := len(n.Links()); got != 12 {
		t.Errorf("got %d links, want 12 (3 paths x 2 hops x 2 directions)", got)
	}
}
