package topo

import (
	"testing"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// boundCfg maps a fuzzed int into (-m, m), keeping sign and zero so the
// constructors' validation and defaulting paths both stay reachable while
// topology sizes remain small enough to build per fuzz iteration.
func boundCfg(v, m int) int { return v % m }

// FuzzConstructors drives the datacenter topology builders with arbitrary
// arities. A constructor must either return an error or produce a topology
// whose host-to-host paths resolve to complete link chains — graph.chain
// panics on a missing edge, so any wiring gap aborts the fuzzer.
func FuzzConstructors(f *testing.F) {
	f.Add(4, 5, 2, 8, 4)  // the paper's figure configurations
	f.Add(8, 3, 1, 64, 8) // published VL2 scale
	f.Add(-2, 2, 0, 1, 2) // minimal and invalid corners
	f.Add(0, 0, 0, 0, 0)  // all defaults
	f.Fuzz(func(t *testing.T, ftK, bcN, bcK, tors, switches int) {
		eng := sim.NewEngine(1)
		if ft, err := NewFatTree(eng, FatTreeConfig{K: boundCfg(ftK, 11)}); err == nil {
			requirePaths(t, "fattree", ft.Paths(0, ft.Hosts()-1, 3))
		}
		if bc, err := NewBCube(eng, BCubeConfig{N: boundCfg(bcN, 7), K: boundCfg(bcK, 4)}); err == nil {
			requirePaths(t, "bcube", bc.Paths(0, bc.Hosts()-1, 3))
		}
		v, err := NewVL2(eng, VL2Config{ToRs: boundCfg(tors, 65), Switches: boundCfg(switches, 17)})
		if err == nil && v.Hosts() > 1 {
			requirePaths(t, "vl2", v.Paths(0, v.Hosts()-1, 3))
		}
	})
}

// requirePaths asserts every returned path is a usable route: both
// directions present with no nil links.
func requirePaths(t *testing.T, kind string, paths []*netem.Path) {
	t.Helper()
	if len(paths) == 0 {
		t.Fatalf("%s: no paths between first and last host", kind)
	}
	for _, p := range paths {
		if p == nil || len(p.Forward) == 0 || len(p.Reverse) == 0 {
			t.Fatalf("%s: incomplete path %+v", kind, p)
		}
		for _, l := range append(append([]*netem.Link{}, p.Forward...), p.Reverse...) {
			if l == nil {
				t.Fatalf("%s: path %s has a nil link", kind, p.Name)
			}
		}
	}
}
