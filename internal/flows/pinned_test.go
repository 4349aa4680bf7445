package flows

import (
	"fmt"
	"testing"

	"mptcpsim/internal/faults"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
)

// pinnedRun drives one k=4 population to the horizon (or until it drains),
// cuts what is alive and reports the things connection reuse must never move:
// the number of events the engine processed, the packet-hops the links
// delivered, and the manager's books.
func pinnedRun(t *testing.T, seed int64, horizon sim.Time, cfg Config, faulted bool) (events, hops uint64, books string) {
	t.Helper()
	eng := sim.NewEngine(seed)
	ft, err := topo.NewFatTree(eng, topo.FatTreeConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if faulted {
		links := ft.SwitchLinks()
		faults.ApplyLinks(eng, links[:1], faults.Outage{Down: 500 * sim.Millisecond, Up: sim.Second})
		faults.ApplyLinks(eng, links[1:2], faults.Flap{
			Start: 300 * sim.Millisecond, Period: 600 * sim.Millisecond, DownFor: 150 * sim.Millisecond,
		})
	}
	m := MustNew(eng, ft, cfg)
	m.OnDrained = eng.Stop
	m.Start()
	eng.Run(horizon)
	m.CutLive()
	t.Logf("%d admissions built a connection, %d rebuilt a closed one", m.built, m.Stats().Admitted-m.built)
	for _, l := range ft.Links() {
		hops += l.Delivered()
	}
	return eng.Processed(), hops, fmt.Sprintf("%+v", m.Stats())
}

// TestPopulationsPinned pins (eng.Processed(), Σ link.Delivered(), Stats) for
// three populations. The books of the two mice populations are the ones
// recorded at the commit before connections were recycled and paths cached: a
// reused connection that still had a packet or a tick in the simulation, or a
// Reset that differs from New in any field the transport reads, moves at
// least one of these counters. Every event count is the old pin by identity,
// written as a subtraction: the two-event link fired a serialization-done
// event per delivered packet-hop and the finish-time link does not, so the
// mice pins lose hops; and Close unlinks the RTO tick of every connection it
// retires, which used to fire inert after release — 4152, 628 and 5504 such
// ticks, counted on the cooling-queue code.
func TestPopulationsPinned(t *testing.T) {
	cases := []struct {
		name    string
		seed    int64
		horizon sim.Time
		cfg     Config
		faulted bool
		events  uint64
		hops    uint64
		books   string
	}{
		{name: "mice", seed: 1, horizon: 60 * sim.Second, cfg: miceConfig(6000, 2000),
			events: 735376 - 362612 - 4152, hops: 362612,
			books: "{Offered:6000 Admitted:6000 Completed:6000 ShedCapacity:0 Cut:0 OfferedByClass:[6000 0 0] CompletedByClass:[6000 0 0] ShedByClass:[0 0 0] CutByClass:[0 0 0] PeakLive:15 OfferedBytes:43637778 AckedBytes:48011336}"},
		// The default web/bulk/stream mix, shed at the admission cap and cut
		// at a horizon that falls inside the arrival phase. Overloaded, so
		// which packet a full queue drops hangs on same-instant order, and
		// this pin — unlike the two above — was re-recorded with the
		// finish-time link (two-event: 1045914 events, 356 admitted). Both
		// halves of the new order move it: departure before arrival at a link,
		// forced on the two-event link alone, moves admitted to 359; arrival
		// events scheduled at admission instead of at serialization end (an
		// instant's events fire in schedule order) move it on to 365.
		{name: "mix-shed-cut", seed: 2, horizon: 4 * sim.Second, cfg: Config{
			Algorithm:     "olia",
			Subflows:      4,
			TotalFlows:    1500,
			MaxConcurrent: 40,
			Arrivals:      Poisson{Rate: 300},
		},
			events: 495710 - 628, hops: 493090,
			books: "{Offered:1221 Admitted:365 Completed:325 ShedCapacity:856 Cut:40 OfferedByClass:[845 249 127] CompletedByClass:[252 66 7] ShedByClass:[592 176 88] CutByClass:[1 7 32] PeakLive:40 OfferedBytes:762239684 AckedBytes:65744992}"},
		{name: "mice-faulted", seed: 3, horizon: 60 * sim.Second, cfg: miceConfig(6000, 2000), faulted: true,
			events: 741251 - 364608 - 5504, hops: 364608,
			books: "{Offered:6000 Admitted:6000 Completed:6000 ShedCapacity:0 Cut:0 OfferedByClass:[6000 0 0] CompletedByClass:[6000 0 0] ShedByClass:[0 0 0] CutByClass:[0 0 0] PeakLive:241 OfferedBytes:44170805 AckedBytes:48518136}"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			events, hops, books := pinnedRun(t, tc.seed, tc.horizon, tc.cfg, tc.faulted)
			if events != tc.events || hops != tc.hops || books != tc.books {
				t.Errorf("population moved:\n got %d events, %d hops, %s\nwant %d events, %d hops, %s",
					events, hops, books, tc.events, tc.hops, tc.books)
			}
		})
	}
}

// TestEventsPerHopBudget keeps a second per-hop event from creeping back: on
// the mice population nearly every event is a packet reaching its next hop
// (the rest are arrivals, ticks and retransmission timers), so the engine
// may process at most 1.05 events per delivered packet-hop. The two-event
// link ran at 2.03.
func TestEventsPerHopBudget(t *testing.T) {
	events, hops, _ := pinnedRun(t, 1, 60*sim.Second, miceConfig(6000, 2000), false)
	if float64(events) > 1.05*float64(hops) {
		t.Errorf("%d events for %d packet-hops: %.3f per hop, budget 1.05", events, hops, float64(events)/float64(hops))
	}
}
