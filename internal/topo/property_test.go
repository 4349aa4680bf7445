package topo

import (
	"testing"
	"testing/quick"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// Property: for random host pairs and subflow counts, every enumerated
// route is well-formed — positive bottleneck rate, positive base RTT,
// matching forward/reverse hop counts — across all three datacenter
// topologies.
func TestDatacenterPathsWellFormedProperty(t *testing.T) {
	eng := sim.NewEngine(1)
	ft, err := NewFatTree(eng, FatTreeConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	vl2, err := NewVL2(eng, VL2Config{ToRs: 8, Switches: 4})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := NewBCube(eng, BCubeConfig{N: 3, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	nets := []struct {
		name  string
		hosts int
		paths func(src, dst, n int) []*netem.Path
	}{
		{name: "fattree", hosts: ft.Hosts(), paths: ft.Paths},
		{name: "vl2", hosts: vl2.Hosts(), paths: vl2.Paths},
		{name: "bcube", hosts: bc.Hosts(), paths: bc.Paths},
	}

	f := func(rawSrc, rawDst, rawN uint8) bool {
		for _, net := range nets {
			src := int(rawSrc) % net.hosts
			dst := int(rawDst) % net.hosts
			n := int(rawN)%8 + 1
			paths := net.paths(src, dst, n)
			if src == dst {
				if paths != nil {
					t.Logf("%s: self-pair returned paths", net.name)
					return false
				}
				continue
			}
			if len(paths) != n {
				t.Logf("%s: got %d paths, want %d", net.name, len(paths), n)
				return false
			}
			for _, p := range paths {
				if p.MinRate() <= 0 {
					t.Logf("%s: %s has no bottleneck rate", net.name, p.Name)
					return false
				}
				if p.BaseRTT(1500, 52) <= 0 {
					t.Logf("%s: %s has non-positive RTT", net.name, p.Name)
					return false
				}
				if len(p.Forward) == 0 || len(p.Forward) != len(p.Reverse) {
					t.Logf("%s: %s asymmetric (%d fwd, %d rev)",
						net.name, p.Name, len(p.Forward), len(p.Reverse))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: BCube routes never visit the same link twice (loop freedom).
func TestBCubeLoopFreeProperty(t *testing.T) {
	eng := sim.NewEngine(1)
	bc, err := NewBCube(eng, BCubeConfig{N: 4, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := func(rawSrc, rawDst uint8) bool {
		src := int(rawSrc) % bc.Hosts()
		dst := int(rawDst) % bc.Hosts()
		if src == dst {
			return true
		}
		for _, p := range bc.Paths(src, dst, 6) {
			seen := make(map[*netem.Link]bool, len(p.Forward))
			for _, l := range p.Forward {
				if seen[l] {
					t.Logf("route %s revisits link %s", p.Name, l.Name())
					return false
				}
				seen[l] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
