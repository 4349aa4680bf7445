package topo

import (
	"fmt"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// Net is the one surface a built topology presents to whoever places
// traffic on it: how many hosts it has and the routes between two of them.
// The datacenter fabrics, the EC2 VPC and the dumbbell implement it
// directly; the one-pair scenarios present it through Pair.
type Net interface {
	Hosts() int
	Paths(src, dst, n int) []*netem.Path
}

// Params are the size and link parameters a registered topology reads (each
// entry's Desc says which). Zero values take the entry's defaults.
type Params struct {
	Size   int      // fattree k, vl2 ToRs, bcube n, ec2 hosts, dumbbell users
	Levels int      // bcube k; 0 means 1 beside a Size and the paper's BCube(5,2) without one
	Rates  [2]int64 // twopath per-path capacity
	Delay  sim.Time // twopath one-way path delay
	Queue  int      // twopath per-hop queue
}

// Entry is one registered topology.
type Entry struct {
	Name string
	Desc string
	// Routes is the number of disjoint routes of a one-pair topology, each
	// with its own cross-traffic entry; 0 for everything else.
	Routes int
	// Fabric marks a multi-host topology a flow population can be placed on.
	Fabric bool

	build func(*sim.Engine, Params) (Net, error)
}

// registry is the static table of named topologies, sorted by name: the
// paper's five worlds (Fig. 5a dumbbell, Fig. 5b twopath, EC2, the three
// htsim fabrics, the WiFi+4G handset) plus the four bare N-path grids the
// fluid/packet sweep was calibrated on, whose specs are fully explicit so
// the fluid engine reads capacities and queues straight off the links.
var registry = []Entry{
	{Name: "bcube", Desc: "BCube(Size, Levels), 100 Mb/s links", Fabric: true,
		build: func(eng *sim.Engine, p Params) (Net, error) {
			if p.Size != 0 && p.Levels == 0 {
				p.Levels = 1
			}
			return NewBCube(eng, BCubeConfig{N: p.Size, K: p.Levels})
		}},
	{Name: "dumbbell", Desc: "Fig. 5a: Size users (default 1) sharing two 100 Mb/s bottlenecks",
		build: func(eng *sim.Engine, p Params) (Net, error) {
			return NewDumbbell(eng, max(p.Size, 1)), nil
		}},
	{Name: "ec2", Desc: "EC2 VPC: Size hosts (default 40), 4x256 Mb/s ENIs each, ECN marking at 20 packets", Fabric: true,
		build: func(eng *sim.Engine, p Params) (Net, error) {
			return NewEC2VPC(eng, p.Size), nil
		}},
	{Name: "fattree", Desc: "k-ary fat tree, k = Size (default 8: the paper's 128 hosts)", Fabric: true,
		build: func(eng *sim.Engine, p Params) (Net, error) {
			return NewFatTree(eng, FatTreeConfig{K: p.Size})
		}},
	{Name: "hetdelay", Desc: "heterogeneous delays: 16 Mb/s @ 10 ms + 8 Mb/s @ 40 ms", Routes: 2,
		build: pair(90, NPathSpec{Rate: 16e6, Delay: 10 * sim.Millisecond, Queue: 50}, NPathSpec{Rate: 8e6, Delay: 40 * sim.Millisecond, Queue: 50})},
	// Fig. 17's ns-2 setup: the WiFi path through AP node 10, the 4G path
	// through base station 11, DropTail queues of 50 packets.
	{Name: "hetwireless", Desc: "Fig. 17 handset: WiFi 10 Mb/s/40 ms + 4G 20 Mb/s/100 ms, bursts at 80% of each link", Routes: 2,
		build: pair(80, NPathSpec{Name: "wifi", Rate: 10 * netem.Mbps, Delay: 40 * sim.Millisecond, Queue: 50},
			NPathSpec{Name: "lte", Rate: 20 * netem.Mbps, Delay: 100 * sim.Millisecond, Queue: 50})},
	{Name: "threepath", Desc: "three asymmetric paths: 24 + 12 + 6 Mb/s, 20 ms delay", Routes: 3,
		build: pair(90, NPathSpec{Rate: 24e6, Delay: 20 * sim.Millisecond, Queue: 50}, NPathSpec{Rate: 12e6, Delay: 20 * sim.Millisecond, Queue: 50}, NPathSpec{Rate: 6e6, Delay: 20 * sim.Millisecond, Queue: 50})},
	{Name: "twopath", Desc: "Fig. 5b: two paths of Rates (default 100 Mb/s), Delay (10 ms), Queue (100), bursts at 90% of each", Routes: 2,
		build: func(eng *sim.Engine, p Params) (Net, error) {
			tp := NewNPath(eng,
				NPathSpec{Rate: p.Rates[0], Delay: p.Delay, Queue: p.Queue},
				NPathSpec{Rate: p.Rates[1], Delay: p.Delay, Queue: p.Queue})
			return &Pair{routes: tp.Paths(), burstPct: 90}, nil
		}},
	{Name: "twopath-asym", Desc: "the conformance scenario: 16 + 8 Mb/s, 20 ms delay", Routes: 2,
		build: pair(90, NPathSpec{Rate: 16e6, Delay: 20 * sim.Millisecond, Queue: 50}, NPathSpec{Rate: 8e6, Delay: 20 * sim.Millisecond, Queue: 50})},
	{Name: "twopath-sym", Desc: "two symmetric 12 Mb/s paths, 20 ms delay", Routes: 2,
		build: pair(90, NPathSpec{Rate: 12e6, Delay: 20 * sim.Millisecond, Queue: 50}, NPathSpec{Rate: 12e6, Delay: 20 * sim.Millisecond, Queue: 50})},
	{Name: "vl2", Desc: "VL2 Clos: Size ToRs of 2 hosts under Size/2 aggregation and intermediate switches (default the paper's 64/8/8)", Fabric: true,
		build: func(eng *sim.Engine, p Params) (Net, error) {
			if p.Size == 0 {
				return NewVL2(eng, VL2Config{})
			}
			return NewVL2(eng, VL2Config{ToRs: p.Size, Switches: max(p.Size/2, 2)})
		}},
}

// pair builds a fixed NPath seen as a Pair whose bursts run at burstPct of
// each route's entry link.
func pair(burstPct int64, specs ...NPathSpec) func(*sim.Engine, Params) (Net, error) {
	return func(eng *sim.Engine, _ Params) (Net, error) {
		return &Pair{routes: NewNPath(eng, specs...).Paths(), burstPct: burstPct}, nil
	}
}

// Names lists the registered topologies in sorted order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

// Lookup finds a registered topology by name.
func Lookup(name string) (Entry, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Build constructs a registered topology on eng.
func Build(eng *sim.Engine, name string, p Params) (Net, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("topo: unknown topology %q (have %v)", name, Names())
	}
	return e.build(eng, p)
}

// Pair is a one-pair topology (an NPath) seen as a Net:
// two hosts joined by disjoint two-hop routes.
type Pair struct {
	routes   []*netem.Path
	burstPct int64
}

// Hosts implements Net.
func (p *Pair) Hosts() int { return 2 }

// Paths implements Net: n subflows over the pair's routes (n <= 0: one per
// route); src and dst are ignored.
func (p *Pair) Paths(_, _, n int) []*netem.Path { return Fan(p.routes, n) }

// CrossEntry returns the link of route i that cross traffic shares: the
// second hop, so the sender's access hop stays clean.
func (p *Pair) CrossEntry(i int) *netem.Link { return p.routes[i].Forward[1] }

// BurstRate is the rate a bursty cross source on route i transmits at: the
// topology's fraction of the entry link, enough to flip the path to the Bad
// state of Fig. 5b.
func (p *Pair) BurstRate(i int) int64 { return p.CrossEntry(i).Rate() * p.burstPct / 100 }

// Fan spreads n subflows over the given routes round-robin (the kernel path
// manager's num_subflows); n <= 0 means one per route.
func Fan(routes []*netem.Path, n int) []*netem.Path {
	if n <= 0 {
		n = len(routes)
	}
	out := make([]*netem.Path, n)
	for i := range out {
		out[i] = routes[i%len(routes)]
	}
	return out
}
