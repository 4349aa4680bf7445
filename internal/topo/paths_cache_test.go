package topo

import (
	"testing"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// pathsNet is what the four datacenter-style topologies share.
type pathsNet interface {
	Hosts() int
	Paths(src, dst, n int) []*netem.Path
}

// dcNets builds one small instance of each topology whose Paths is
// memoised, with a far host pair to ask for.
func dcNets(tb testing.TB) map[string]pathsNet {
	tb.Helper()
	eng := sim.NewEngine(1)
	ft, err := NewFatTree(eng, FatTreeConfig{K: 4})
	if err != nil {
		tb.Fatal(err)
	}
	vl2, err := NewVL2(eng, VL2Config{})
	if err != nil {
		tb.Fatal(err)
	}
	bc, err := NewBCube(eng, BCubeConfig{N: 3, K: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]pathsNet{
		"fattree": ft, "vl2": vl2, "bcube": bc,
		"ec2": NewEC2VPC(eng, 6),
	}
}

// TestPathsOwnedByTopology pins the contract flows relies on to keep packet
// pools alive across flows: asking twice gives the same *netem.Path values,
// and a caller appending to the slice it got cannot change the next answer.
func TestPathsOwnedByTopology(t *testing.T) {
	for name, net := range dcNets(t) {
		name, net := name, net
		t.Run(name, func(t *testing.T) {
			a, b, n := 0, net.Hosts()-1, 4
			first := net.Paths(a, b, n)
			if len(first) == 0 {
				t.Fatal("no paths")
			}
			want := append([]*netem.Path(nil), first...)

			// A caller that appends to its slice and rearranges the result works
			// on a copy.
			grown := append(first, &netem.Path{Name: "intruder"})
			grown[0] = grown[len(grown)-1]

			again := net.Paths(a, b, n)
			if len(again) != len(want) {
				t.Fatalf("second call returned %d paths, first %d", len(again), len(want))
			}
			for i := range want {
				if again[i] != want[i] {
					t.Errorf("path %d: second call returned a different *netem.Path", i)
				}
			}
			if cap(again) != len(again) {
				t.Errorf("cap %d != len %d: an append could alias the memo", cap(again), len(again))
			}

			// The memo is per request: another n or the reverse pair is a
			// different set of routes, not a prefix of this one.
			if other := net.Paths(b, a, n); other[0] == want[0] {
				t.Error("reverse pair shares a path with the forward pair")
			}
			if fewer := net.Paths(a, b, 1); len(fewer) != 1 {
				t.Errorf("Paths(n=1) returned %d paths", len(fewer))
			}

			// EC2VPC has always routed a host to itself through a subnet
			// switch; the three graph topologies have no such route.
			if self := net.Paths(a, a, n); name != "ec2" && self != nil {
				t.Errorf("Paths(a, a) = %v, want nil", self)
			}
		})
	}
}

// TestCachedPathsDoNotAllocate is the topo half of the flow-lifecycle
// allocation budget: after the first request a Paths call is a map lookup.
func TestCachedPathsDoNotAllocate(t *testing.T) {
	for name, net := range dcNets(t) {
		a, b := 0, net.Hosts()-1
		net.Paths(a, b, 8)
		if avg := testing.AllocsPerRun(100, func() { net.Paths(a, b, 8) }); avg != 0 {
			t.Errorf("%s: cached Paths allocates %.1f objects per call, want 0", name, avg)
		}
	}
}

func benchCachedPaths(b *testing.B, net pathsNet) {
	hosts := net.Hosts()
	for src := 0; src < hosts; src++ {
		net.Paths(src, (src+hosts/2)%hosts, 8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var got []*netem.Path
	for i := 0; i < b.N; i++ {
		src := i % hosts
		got = net.Paths(src, (src+hosts/2)%hosts, 8)
	}
	if len(got) != 8 {
		b.Fatalf("%d paths, want 8", len(got))
	}
}

// BenchmarkFatTreePaths and BenchmarkBCubePaths time a Paths request that
// hits the memo, which is every request of a churn run after the first per
// host pair.
func BenchmarkFatTreePaths(b *testing.B) {
	ft, err := NewFatTree(sim.NewEngine(1), FatTreeConfig{})
	if err != nil {
		b.Fatal(err)
	}
	benchCachedPaths(b, ft)
}

func BenchmarkBCubePaths(b *testing.B) {
	bc, err := NewBCube(sim.NewEngine(1), BCubeConfig{})
	if err != nil {
		b.Fatal(err)
	}
	benchCachedPaths(b, bc)
}
