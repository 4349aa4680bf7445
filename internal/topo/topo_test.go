package topo

import (
	"testing"

	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// transferOK runs a small MPTCP transfer over the given paths and reports
// whether it completes — the functional proof that a route is wired
// correctly end to end.
func transferOK(t *testing.T, eng *sim.Engine, paths []*netem.Path) bool {
	t.Helper()
	c, err := mptcp.New(eng, mptcp.Config{Algorithm: "lia", TransferBytes: 200 << 10}, 1, paths...)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	eng.Run(eng.Now() + 120*sim.Second)
	return c.Done()
}

func TestFatTreePaperScale(t *testing.T) {
	eng := sim.NewEngine(1)
	ft, err := NewFatTree(eng, FatTreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ft.Hosts() != 128 {
		t.Errorf("FatTree(8) hosts = %d, want 128", ft.Hosts())
	}
	if ft.Switches() != 80 {
		t.Errorf("FatTree(8) switches = %d, want 80", ft.Switches())
	}
	// Total links: host links (128) + edge-agg (k * k/2 * k/2 = 128) +
	// agg-core (k * k/2 * k/2 = 128), each bidirectional.
	if got := len(ft.Links()); got != 2*(128+128+128) {
		t.Errorf("FatTree(8) directed links = %d, want 768", got)
	}
}

func TestFatTreeRejectsOddK(t *testing.T) {
	eng := sim.NewEngine(1)
	if _, err := NewFatTree(eng, FatTreeConfig{K: 3}); err == nil {
		t.Error("odd k accepted")
	}
}

func TestFatTreePathShapes(t *testing.T) {
	eng := sim.NewEngine(1)
	ft, err := NewFatTree(eng, FatTreeConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ft.Hosts() != 16 || ft.Switches() != 20 {
		t.Fatalf("FatTree(4): %d hosts %d switches, want 16/20", ft.Hosts(), ft.Switches())
	}
	tests := []struct {
		name     string
		src, dst int
		wantHops int // forward links
	}{
		{name: "inter-pod", src: 0, dst: 15, wantHops: 6},
		{name: "intra-pod", src: 0, dst: 3, wantHops: 4},
		{name: "same-edge", src: 0, dst: 1, wantHops: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			paths := ft.Paths(tt.src, tt.dst, 4)
			if len(paths) != 4 {
				t.Fatalf("got %d paths, want 4", len(paths))
			}
			for _, p := range paths {
				if len(p.Forward) != tt.wantHops {
					t.Errorf("path %s has %d hops, want %d", p.Name, len(p.Forward), tt.wantHops)
				}
				if len(p.Reverse) != tt.wantHops {
					t.Errorf("path %s reverse has %d hops, want %d", p.Name, len(p.Reverse), tt.wantHops)
				}
			}
		})
	}
}

func TestFatTreeInterPodPathsDisjoint(t *testing.T) {
	eng := sim.NewEngine(1)
	ft, _ := NewFatTree(eng, FatTreeConfig{K: 4})
	paths := ft.Paths(0, 15, 4) // (k/2)^2 = 4 distinct core routes
	seen := make(map[*netem.Link]int)
	for _, p := range paths {
		// The middle hops (agg->core, core->agg) must differ across paths.
		seen[p.Forward[2]]++
		seen[p.Forward[3]]++
	}
	for l, n := range seen {
		if n > 1 {
			t.Errorf("core link %s shared by %d of the 4 equal-cost paths", l.Name(), n)
		}
	}
}

func TestFatTreeSamePairNoPaths(t *testing.T) {
	eng := sim.NewEngine(1)
	ft, _ := NewFatTree(eng, FatTreeConfig{K: 4})
	if p := ft.Paths(3, 3, 2); p != nil {
		t.Error("src == dst should yield no paths")
	}
}

func TestFatTreeEndToEnd(t *testing.T) {
	eng := sim.NewEngine(1)
	ft, _ := NewFatTree(eng, FatTreeConfig{K: 4})
	if !transferOK(t, eng, ft.Paths(0, 13, 4)) {
		t.Error("transfer across FatTree(4) did not complete")
	}
}

func TestFatTreeSwitchLinks(t *testing.T) {
	eng := sim.NewEngine(1)
	ft, _ := NewFatTree(eng, FatTreeConfig{K: 4})
	// edge-agg: 4 pods * 2 * 2 = 16 bidirectional = 32 directed; agg-core
	// same again.
	if got := len(ft.SwitchLinks()); got != 64 {
		t.Errorf("switch links = %d, want 64", got)
	}
}

// Link enumeration order must not depend on map iteration: fault schedules
// index into these slices (kill links[0], flap links[1]), so a reshuffled
// order would fault different physical links run to run and break the
// byte-identical determinism contract.
func TestLinkEnumerationDeterministic(t *testing.T) {
	names := func(ls []*netem.Link) []string {
		out := make([]string, len(ls))
		for i, l := range ls {
			out[i] = l.Name()
		}
		return out
	}
	build := func(eng *sim.Engine) [][]string {
		ft, _ := NewFatTree(eng, FatTreeConfig{K: 4})
		vl, _ := NewVL2(eng, VL2Config{})
		return [][]string{names(ft.SwitchLinks()), names(ft.Links()), names(vl.SwitchLinks())}
	}
	a := build(sim.NewEngine(1))
	for trial := 0; trial < 5; trial++ {
		b := build(sim.NewEngine(1))
		for i := range a {
			if len(a[i]) != len(b[i]) {
				t.Fatalf("enumeration %d: %d links vs %d", i, len(a[i]), len(b[i]))
			}
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("enumeration %d reordered at %d: %q vs %q", i, j, a[i][j], b[i][j])
				}
			}
		}
	}
}

func TestVL2PaperScale(t *testing.T) {
	eng := sim.NewEngine(1)
	v, err := NewVL2(eng, VL2Config{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Hosts() != 128 {
		t.Errorf("VL2 hosts = %d, want 128", v.Hosts())
	}
	if v.Switches() != 80 {
		t.Errorf("VL2 switches = %d, want 80", v.Switches())
	}
}

func TestVL2PathShapes(t *testing.T) {
	eng := sim.NewEngine(1)
	v, err := NewVL2(eng, VL2Config{ToRs: 8, Switches: 4})
	if err != nil {
		t.Fatal(err)
	}
	paths := v.Paths(0, 15, 8)
	if len(paths) != 8 {
		t.Fatalf("got %d paths, want 8", len(paths))
	}
	for _, p := range paths {
		if len(p.Forward) != 6 {
			t.Errorf("inter-ToR path %s has %d hops, want 6", p.Name, len(p.Forward))
		}
	}
	// Distinct intermediates across the first Ints paths.
	inter := make(map[*netem.Link]bool)
	for _, p := range paths[:4] {
		inter[p.Forward[2]] = true
	}
	if len(inter) != 4 {
		t.Errorf("first 4 paths use %d distinct agg->intermediate links, want 4", len(inter))
	}
	// Same-ToR pair: two hops through the ToR.
	same := v.Paths(0, 1, 2)
	for _, p := range same {
		if len(p.Forward) != 2 {
			t.Errorf("same-ToR path has %d hops, want 2", len(p.Forward))
		}
	}
}

func TestVL2EndToEnd(t *testing.T) {
	eng := sim.NewEngine(1)
	v, _ := NewVL2(eng, VL2Config{ToRs: 8, Switches: 4})
	if !transferOK(t, eng, v.Paths(0, 9, 4)) {
		t.Error("transfer across VL2 did not complete")
	}
}

func TestBCubePaperScale(t *testing.T) {
	eng := sim.NewEngine(1)
	b, err := NewBCube(eng, BCubeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Hosts() != 125 {
		t.Errorf("BCube(5,2) hosts = %d, want 125", b.Hosts())
	}
	if b.Switches() != 75 {
		t.Errorf("BCube(5,2) switches = %d, want 75", b.Switches())
	}
}

func TestBCubeSwitchAdjacency(t *testing.T) {
	eng := sim.NewEngine(1)
	b, err := NewBCube(eng, BCubeConfig{N: 3, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	// BCube(3,1): 9 hosts, 6 switches, each host 2 ports: 18 bidirectional
	// links -> 36 directed.
	if b.Hosts() != 9 || b.Switches() != 6 {
		t.Fatalf("BCube(3,1): %d hosts %d switches", b.Hosts(), b.Switches())
	}
	if got := len(b.Links()); got != 36 {
		t.Errorf("BCube(3,1) directed links = %d, want 36", got)
	}
}

func TestBCubePathsAlternateHostSwitch(t *testing.T) {
	eng := sim.NewEngine(1)
	b, _ := NewBCube(eng, BCubeConfig{N: 3, K: 1})
	// Hosts 0 (digits 00) and 8 (digits 22) differ in both digits: the
	// direct rotation paths have 2 server hops = 4 links.
	paths := b.Paths(0, 8, 2)
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	for _, p := range paths {
		if len(p.Forward) != 4 {
			t.Errorf("path %s has %d links, want 4 (two server hops)", p.Name, len(p.Forward))
		}
	}
	// The two rotations must not share links.
	used := make(map[*netem.Link]bool)
	for _, l := range paths[0].Forward {
		used[l] = true
	}
	for _, l := range paths[1].Forward {
		if used[l] {
			t.Errorf("rotation paths share link %s", l.Name())
		}
	}
}

func TestBCubeEndToEnd(t *testing.T) {
	eng := sim.NewEngine(1)
	b, _ := NewBCube(eng, BCubeConfig{N: 3, K: 1})
	if !transferOK(t, eng, b.Paths(1, 7, 3)) {
		t.Error("transfer across BCube did not complete")
	}
}

func TestEC2VPCPaths(t *testing.T) {
	eng := sim.NewEngine(1)
	v := NewEC2VPC(eng, 0)
	if v.Hosts() != 40 {
		t.Errorf("hosts = %d, want 40", v.Hosts())
	}
	paths := v.Paths(0, 1, 0)
	if len(paths) != 4 {
		t.Fatalf("got %d paths, want 4 (one per subnet)", len(paths))
	}
	for _, p := range paths {
		if len(p.Forward) != 2 {
			t.Errorf("VPC path has %d hops, want 2", len(p.Forward))
		}
		if p.MinRate() != 256*netem.Mbps {
			t.Errorf("ENI rate = %d, want 256 Mb/s", p.MinRate())
		}
	}
	if !transferOK(t, eng, paths) {
		t.Error("transfer across VPC did not complete")
	}
}

func TestDumbbellScenario(t *testing.T) {
	eng := sim.NewEngine(1)
	d := NewDumbbell(eng, 3)
	mp := d.MPTCPPaths(0)
	if len(mp) != 2 {
		t.Fatalf("MPTCP user has %d paths, want 2", len(mp))
	}
	if mp[0].Forward[1] == mp[1].Forward[1] {
		t.Error("the two MPTCP paths share a bottleneck")
	}
	b := d.Bottlenecks()
	if mp[0].Forward[1] != b[0] || mp[1].Forward[1] != b[1] {
		t.Error("MPTCP paths do not traverse the dumbbell bottlenecks")
	}
	if tp := d.TCPPath(1, 0); tp.Forward[1] != b[0] {
		t.Error("TCP path misses bottleneck 0")
	}
	if !transferOK(t, eng, mp) {
		t.Error("transfer across dumbbell did not complete")
	}
}

func TestTwoPathScenario(t *testing.T) {
	eng := sim.NewEngine(1)
	net, err := Build(eng, "twopath", Params{})
	if err != nil {
		t.Fatal(err)
	}
	tp := net.(*Pair)
	paths := tp.Paths(0, 1, 0)
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	if tp.CrossEntry(0) == tp.CrossEntry(1) {
		t.Error("cross-traffic entries coincide")
	}
	if tp.CrossEntry(0) != paths[0].Forward[1] {
		t.Error("cross entry is not the shared hop of path 0")
	}
	if !transferOK(t, eng, paths) {
		t.Error("transfer across two-path scenario did not complete")
	}
}

func TestHetWirelessScenario(t *testing.T) {
	eng := sim.NewEngine(1)
	h, err := Build(eng, "hetwireless", Params{})
	if err != nil {
		t.Fatal(err)
	}
	paths := h.Paths(0, 1, 0)
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	if paths[0].MinRate() != 10*netem.Mbps || paths[1].MinRate() != 20*netem.Mbps {
		t.Errorf("rates = %d, %d; want WiFi 10 Mb/s, LTE 20 Mb/s",
			paths[0].MinRate(), paths[1].MinRate())
	}
	wifiRTT := paths[0].BaseRTT(1500, 52)
	lteRTT := paths[1].BaseRTT(1500, 52)
	if wifiRTT >= lteRTT {
		t.Errorf("WiFi base RTT %v >= LTE %v", wifiRTT.Duration(), lteRTT.Duration())
	}
	if !transferOK(t, eng, paths) {
		t.Error("transfer across het-wireless did not complete")
	}
}
