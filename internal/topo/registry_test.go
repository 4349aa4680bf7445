package topo

import (
	"sort"
	"testing"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// TestRegistryBuildsEveryEntry: the table is sorted, every entry builds at
// its defaults and at a small size, and what it says about itself — Routes,
// Fabric — is what the built Net shows.
func TestRegistryBuildsEveryEntry(t *testing.T) {
	if names := Names(); !sort.StringsAreSorted(names) || len(names) != len(registry) {
		t.Fatalf("Names() = %v: not the sorted registry", names)
	}
	for _, e := range registry {
		for _, p := range []Params{{}, {Size: 4}} {
			net, err := Build(sim.NewEngine(1), e.Name, p)
			if err != nil {
				t.Errorf("%s %+v: %v", e.Name, p, err)
				continue
			}
			pair, isPair := net.(*Pair)
			if isPair != (e.Routes > 0) {
				t.Errorf("%s: Routes = %d but built a %T", e.Name, e.Routes, net)
			}
			if isPair {
				if got := len(pair.Paths(0, 1, 0)); got != e.Routes {
					t.Errorf("%s: %d routes, entry says %d", e.Name, got, e.Routes)
				}
				continue
			}
			if e.Fabric && net.Hosts() < 2 {
				t.Errorf("%s %+v: a fabric of %d hosts", e.Name, p, net.Hosts())
			}
			if got := len(net.Paths(0, net.Hosts()-1, 2)); got != 2 && net.Hosts() > 1 {
				t.Errorf("%s %+v: Paths(0, last, 2) returned %d paths", e.Name, p, got)
			}
		}
	}
	if _, err := Build(sim.NewEngine(1), "mesh", Params{}); err == nil {
		t.Error("Build(mesh) succeeded")
	}
}

// TestPairFansRoundRobin: the one subflow fan-out — n subflows over the
// routes in order, one per route by default — and the cross-traffic entry
// and burst rate every front-end reads off the same Pair.
func TestPairFansRoundRobin(t *testing.T) {
	net, err := Build(sim.NewEngine(1), "twopath", Params{Rates: [2]int64{50 * netem.Mbps, 20 * netem.Mbps}})
	if err != nil {
		t.Fatal(err)
	}
	pair := net.(*Pair)
	var got []string
	for _, p := range pair.Paths(0, 1, 5) {
		got = append(got, p.Name)
	}
	if want := "path0 path1 path0 path1 path0"; len(got) != 5 || got[0]+" "+got[1]+" "+got[2]+" "+got[3]+" "+got[4] != want {
		t.Errorf("Paths(_, _, 5) = %v, want %s", got, want)
	}
	if n := len(pair.Paths(0, 1, 0)); n != 2 {
		t.Errorf("Paths(_, _, 0) = %d paths, want one per route", n)
	}
	if pair.CrossEntry(1) != pair.Paths(0, 1, 0)[1].Forward[1] {
		t.Error("CrossEntry(1) is not route 1's second hop")
	}
	if r0, r1 := pair.BurstRate(0), pair.BurstRate(1); r0 != 45*netem.Mbps || r1 != 18*netem.Mbps {
		t.Errorf("burst rates %d, %d: want 90%% of 50 and 20 Mb/s", r0, r1)
	}
	het, _ := Build(sim.NewEngine(1), "hetwireless", Params{})
	if r0, r1 := het.(*Pair).BurstRate(0), het.(*Pair).BurstRate(1); r0 != 8*netem.Mbps || r1 != 16*netem.Mbps {
		t.Errorf("hetwireless burst rates %d, %d: want the paper's 8 and 16 Mb/s", r0, r1)
	}
}
