package topo

import (
	"fmt"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// NPath generalizes the Fig. 5b two-path scenario to any number of
// parallel, link-disjoint paths between one sender-receiver pair, each with
// its own capacity, delay and queue. It is the scenario the backend sweep
// engines fan over: per-path asymmetry makes equilibrium shares
// distinguishable, and disjoint bottlenecks match the fluid model's
// per-path loss signal (see internal/backend and docs/backends.md).
// The registry's twopath and hetwireless entries are NPaths of two specs.
type NPath struct {
	g     *graph
	paths []*netem.Path
}

// NPathSpec describes one path of an NPath scenario.
type NPathSpec struct {
	Rate  int64    // bottleneck capacity (default 100 Mb/s)
	Delay sim.Time // one-way end-to-end delay (default 10 ms)
	Queue int      // per-hop DropTail queue (default 100)
	Name  string   // path and link name (default "path<i>" over "tp" links)
}

func (s NPathSpec) withDefaults() NPathSpec {
	if s.Rate == 0 {
		s.Rate = 100 * netem.Mbps
	}
	if s.Delay == 0 {
		s.Delay = 10 * sim.Millisecond
	}
	if s.Queue == 0 {
		s.Queue = 100
	}
	return s
}

// NewNPath builds the scenario: sender node 0, receiver node 1, and one
// relay switch (node 10+i) per path.
func NewNPath(eng *sim.Engine, specs ...NPathSpec) *NPath {
	if len(specs) == 0 {
		panic("topo: NewNPath needs at least one path spec")
	}
	g := newGraph(eng)
	n := &NPath{g: g}
	for i, spec := range specs {
		spec = spec.withDefaults()
		relay := int32(10 + i)
		name, link := fmt.Sprintf("path%d", i), "tp"
		if spec.Name != "" {
			name, link = spec.Name, spec.Name
		}
		lc := netem.LinkConfig{Name: link, Rate: spec.Rate, Delay: spec.Delay / 2, QueueLimit: spec.Queue}
		g.biLink(0, relay, lc)
		g.biLink(relay, 1, lc)
		n.paths = append(n.paths, g.path(name, 0, relay, 1))
	}
	return n
}

// Paths returns the sender's paths in spec order.
func (n *NPath) Paths() []*netem.Path { return n.paths }
