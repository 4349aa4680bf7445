package flows

import (
	"fmt"
	"testing"

	"mptcpsim/internal/faults"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
)

// pinnedRun drives one k=4 population to the horizon (or until it drains),
// cuts what is alive and renders the two things connection reuse must never
// move: the number of events the engine processed and the manager's books.
func pinnedRun(t *testing.T, seed int64, horizon sim.Time, cfg Config, faulted bool) string {
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
	t.Logf("%d of %d admissions rebuilt a cooled connection", m.reused, m.Stats().Admitted)
	return fmt.Sprintf("%d %+v", eng.Processed(), m.Stats())
}

// TestPopulationsPinned pins (eng.Processed(), Stats) for three populations
// to the values recorded at the commit before connections were recycled and
// paths cached: a reused connection that still had a packet or a tick in the
// simulation, or a Reset that differs from New in any field the transport
// reads, moves at least one of these counters.
func TestPopulationsPinned(t *testing.T) {
	cases := []struct {
		name    string
		seed    int64
		horizon sim.Time
		cfg     Config
		faulted bool
		want    string
	}{
		{name: "mice", seed: 1, horizon: 60 * sim.Second, cfg: miceConfig(6000, 2000),
			want: "735376 {Offered:6000 Admitted:6000 Completed:6000 ShedCapacity:0 Cut:0 OfferedByClass:[6000 0 0] CompletedByClass:[6000 0 0] ShedByClass:[0 0 0] CutByClass:[0 0 0] PeakLive:15 OfferedBytes:43637778 AckedBytes:48011336}"},
		// The default web/bulk/stream mix, shed at the admission cap and cut
		// at a horizon that falls inside the arrival phase.
		{name: "mix-shed-cut", seed: 2, horizon: 4 * sim.Second, cfg: Config{
			Algorithm:     "olia",
			Subflows:      4,
			TotalFlows:    1500,
			MaxConcurrent: 40,
			Arrivals:      Poisson{Rate: 300},
		},
			want: "1045914 {Offered:1221 Admitted:356 Completed:316 ShedCapacity:865 Cut:40 OfferedByClass:[845 249 127] CompletedByClass:[245 65 6] ShedByClass:[600 173 92] CutByClass:[0 11 29] PeakLive:40 OfferedBytes:762239684 AckedBytes:69013128}"},
		{name: "mice-faulted", seed: 3, horizon: 60 * sim.Second, cfg: miceConfig(6000, 2000), faulted: true,
			want: "741251 {Offered:6000 Admitted:6000 Completed:6000 ShedCapacity:0 Cut:0 OfferedByClass:[6000 0 0] CompletedByClass:[6000 0 0] ShedByClass:[0 0 0] CutByClass:[0 0 0] PeakLive:241 OfferedBytes:44170805 AckedBytes:48518136}"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if got := pinnedRun(t, tc.seed, tc.horizon, tc.cfg, tc.faulted); got != tc.want {
				t.Errorf("population moved:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}
