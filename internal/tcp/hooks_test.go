package tcp

import (
	"slices"
	"testing"

	"mptcpsim/internal/core"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// hookRecorder is Reno that records what the transport tells it.
type hookRecorder struct {
	core.Reno
	events    []core.PathEvent
	decreases int
}

func (h *hookRecorder) Decrease(flows []core.View, r int) float64 {
	h.decreases++
	return h.Reno.Decrease(flows, r)
}

func (h *hookRecorder) OnPath(_ []core.View, _ int, ev core.PathEvent) {
	h.events = append(h.events, ev)
}

// TestPathHooksFollowTheOutage drives a recording algorithm through a
// blackout, the path's death, its revival and the losses of the slow start
// after it: an RTO delivers PathTimeout, the FailTimeouts-th RTO delivers
// one PathDown in its place, revival delivers PathUp, and each loss event
// calls Decrease once.
func TestPathHooksFollowTheOutage(t *testing.T) {
	eng := sim.NewEngine(1)
	fwd := netem.NewLink(eng, netem.LinkConfig{Name: "f", Rate: 10 * netem.Mbps, Delay: 5 * sim.Millisecond, QueueLimit: 20, LossProb: 1})
	rev := netem.NewLink(eng, netem.LinkConfig{Name: "r", Rate: 10 * netem.Mbps, Delay: 5 * sim.Millisecond})
	p := &netem.Path{Name: "p", Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
	alg := &hookRecorder{}
	coord := &stubCoord{alg: alg, remaining: -1}
	s := NewSubflow(eng, Config{}, coord, 1, 0, p)
	coord.sub = s
	s.Start()

	fails := s.Config().FailTimeouts
	eng.Run(7500 * sim.Millisecond) // RTOs at t = 1, 3, 7 s; the third kills the path
	if st := s.Stats(); st.Timeouts != uint64(fails) || st.Fails != 1 {
		t.Fatalf("Timeouts=%d Fails=%d at t=7.5s, want %d and 1", st.Timeouts, st.Fails, fails)
	}
	want := append(slices.Repeat([]core.PathEvent{core.PathTimeout}, fails-1), core.PathDown)
	if !slices.Equal(alg.events, want) {
		t.Fatalf("events through the blackout = %v, want %v", alg.events, want)
	}

	eng.Schedule(11*sim.Second, func() { fwd.SetLossProb(0) })
	eng.Run(20 * sim.Second)
	st := s.Stats()
	if st.Revivals != 1 {
		t.Fatalf("Revivals = %d after the heal, want 1", st.Revivals)
	}
	if want = append(want, core.PathUp); !slices.Equal(alg.events[:len(want)], want) {
		t.Errorf("events through the revival = %v, want %v first", alg.events, want)
	}
	var timeouts uint64
	for _, ev := range alg.events[len(want):] {
		if ev != core.PathTimeout {
			t.Errorf("event %d after the revival, want only timeouts", ev)
		}
		timeouts++
	}
	if timeouts != st.Timeouts-uint64(fails) {
		t.Errorf("%d PathTimeouts after the revival for %d RTOs", timeouts, st.Timeouts-uint64(fails))
	}
	if st.LossEvents == 0 {
		t.Fatal("no loss event after the revival: the queue never overflowed")
	}
	if alg.decreases != int(st.LossEvents) {
		t.Errorf("Decrease called %d times for %d loss events", alg.decreases, st.LossEvents)
	}
}
