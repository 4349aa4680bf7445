package topo

import (
	"fmt"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// VL2 is the Clos network of Greenberg et al. (SIGCOMM 2009): servers
// under ToR switches, every ToR dual-homed to aggregation switches, and a
// full bipartite mesh between aggregation and intermediate switches with
// faster inter-switch links. The paper's configuration — 128 hosts, 80
// switches — is 64 ToRs (2 hosts each) + 8 aggregation + 8 intermediate.
type VL2 struct {
	g   *graph
	cfg VL2Config
}

// VL2Config parameterizes the Clos; zero values take the paper's settings.
type VL2Config struct {
	HostsPerToR int
	ToRs        int
	Aggs        int
	Ints        int
	ServerRate  int64 // host-ToR links (paper: 1 Gb/s)
	SwitchRate  int64 // inter-switch links (VL2 uses faster: default 10x)
	Delay       sim.Time
	QueueLimit  int
}

func (c VL2Config) withDefaults() VL2Config {
	if c.HostsPerToR == 0 {
		c.HostsPerToR = 2
	}
	if c.ToRs == 0 {
		c.ToRs = 64
	}
	if c.Aggs == 0 {
		c.Aggs = 8
	}
	if c.Ints == 0 {
		c.Ints = 8
	}
	if c.ServerRate == 0 {
		c.ServerRate = netem.Gbps
	}
	if c.SwitchRate == 0 {
		c.SwitchRate = 10 * netem.Gbps
	}
	if c.Delay == 0 {
		// The paper prints "100ms links"; we read that as the
		// htsim-typical 100 us — at 100 ms per hop a datacenter path's
		// bandwidth-delay product dwarfs any realistic switch buffer and
		// every algorithm collapses, which is clearly not what the paper
		// simulated.
		c.Delay = 100 * sim.Microsecond
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 100
	}
	return c
}

const (
	vl2HostBase int32 = 100000
	vl2ToRBase  int32 = 1000
	vl2AggBase  int32 = 2000
	vl2IntBase  int32 = 3000
)

// NewVL2 builds the topology.
func NewVL2(eng *sim.Engine, cfg VL2Config) (*VL2, error) {
	cfg = cfg.withDefaults()
	if cfg.Aggs < 2 {
		return nil, fmt.Errorf("topo: VL2 needs at least 2 aggregation switches, got %d", cfg.Aggs)
	}
	// Paths indexes ToRs, hosts and intermediate switches modulo these
	// counts; non-positive values would panic there instead of erroring here.
	if cfg.HostsPerToR < 1 || cfg.ToRs < 1 || cfg.Ints < 1 {
		return nil, fmt.Errorf("topo: VL2 needs at least one ToR, host per ToR and intermediate switch, got tors=%d hosts/tor=%d ints=%d",
			cfg.ToRs, cfg.HostsPerToR, cfg.Ints)
	}
	g := newGraph(eng)
	v := &VL2{g: g, cfg: cfg}
	server := netem.LinkConfig{Name: "vl2-srv", Rate: cfg.ServerRate, Delay: cfg.Delay, QueueLimit: cfg.QueueLimit}
	sw := netem.LinkConfig{Name: "vl2-sw", Rate: cfg.SwitchRate, Delay: cfg.Delay, QueueLimit: cfg.QueueLimit}

	for t := 0; t < cfg.ToRs; t++ {
		for h := 0; h < cfg.HostsPerToR; h++ {
			g.biLink(v.host(t*cfg.HostsPerToR+h), v.tor(t), server)
		}
		g.biLink(v.tor(t), v.agg(v.torAgg(t, 0)), sw)
		g.biLink(v.tor(t), v.agg(v.torAgg(t, 1)), sw)
	}
	for a := 0; a < cfg.Aggs; a++ {
		for i := 0; i < cfg.Ints; i++ {
			g.biLink(v.agg(a), v.inter(i), sw)
		}
	}
	return v, nil
}

// Hosts returns the host count.
func (v *VL2) Hosts() int { return v.cfg.ToRs * v.cfg.HostsPerToR }

func (v *VL2) host(h int) int32  { return vl2HostBase + int32(h) }
func (v *VL2) tor(t int) int32   { return vl2ToRBase + int32(t) }
func (v *VL2) agg(a int) int32   { return vl2AggBase + int32(a) }
func (v *VL2) inter(i int) int32 { return vl2IntBase + int32(i) }

// torAgg returns the a-th (0 or 1) aggregation switch of ToR t.
func (v *VL2) torAgg(t, a int) int {
	if a == 0 {
		return t % v.cfg.Aggs
	}
	return (t + v.cfg.Aggs/2) % v.cfg.Aggs
}

// Paths returns n routes between two hosts, spread over intermediate
// switches and the dual-homed aggregation choices (VL2's valiant load
// balancing, enumerated deterministically). The routes are built once per
// (src, dst, n) and shared by every caller; see FatTree.Paths.
func (v *VL2) Paths(src, dst, n int) []*netem.Path {
	if src == dst {
		return nil
	}
	return v.g.paths(src, dst, n, v.buildPaths)
}

func (v *VL2) buildPaths(src, dst, n int) []*netem.Path {
	ts, td := src/v.cfg.HostsPerToR, dst/v.cfg.HostsPerToR
	out := make([]*netem.Path, 0, n)
	if ts == td {
		for i := 0; i < n; i++ {
			out = append(out, v.g.path(
				fmt.Sprintf("vl2-%d-%d.%d", src, dst, i),
				v.host(src), v.tor(ts), v.host(dst)))
		}
		return out
	}
	h := (src*131 + dst*31) % v.cfg.Ints
	for i := 0; i < n; i++ {
		inter := (i + h) % v.cfg.Ints
		aggS := v.torAgg(ts, (i+h)%2)
		aggD := v.torAgg(td, (i/2+h)%2)
		out = append(out, v.g.path(
			fmt.Sprintf("vl2-%d-%d.%d", src, dst, i),
			v.host(src), v.tor(ts), v.agg(aggS), v.inter(inter),
			v.agg(aggD), v.tor(td), v.host(dst)))
	}
	return out
}

// SwitchLinks returns the switch-to-switch links for energy pricing, in
// deterministic (from, to) key order (see graph.linksWhere).
func (v *VL2) SwitchLinks() []*netem.Link {
	return v.g.linksWhere(func(key [2]int32) bool {
		return key[0] < vl2HostBase && key[1] < vl2HostBase
	})
}
