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

// VL2Config sizes the Clos; zero values take the paper's 64 ToRs and 8
// aggregation + 8 intermediate switches.
type VL2Config struct {
	ToRs     int
	Switches int // aggregation switches, and as many intermediate ones
}

// VL2's links: 2 hosts per ToR on 1 Gb/s server links, and inter-switch
// links 10x faster, all with the fabrics' dcDelay and dcQueue.
const (
	vl2HostsPerToR       = 2
	vl2ServerRate  int64 = netem.Gbps
	vl2SwitchRate  int64 = 10 * netem.Gbps
)

const (
	vl2HostBase int32 = 100000
	vl2ToRBase  int32 = 1000
	vl2AggBase  int32 = 2000
	vl2IntBase  int32 = 3000
)

// NewVL2 builds the topology.
func NewVL2(eng *sim.Engine, cfg VL2Config) (*VL2, error) {
	if cfg.ToRs == 0 {
		cfg.ToRs = 64
	}
	if cfg.Switches == 0 {
		cfg.Switches = 8
	}
	// Paths indexes ToRs and switches modulo these counts; smaller values
	// would panic there instead of erroring here.
	if cfg.Switches < 2 || cfg.ToRs < 1 {
		return nil, fmt.Errorf("topo: VL2 needs at least one ToR and 2 aggregation switches, got tors=%d switches=%d",
			cfg.ToRs, cfg.Switches)
	}
	g := newGraph(eng)
	v := &VL2{g: g, cfg: cfg}
	server := netem.LinkConfig{Name: "vl2-srv", Rate: vl2ServerRate, Delay: dcDelay, QueueLimit: dcQueue}
	sw := netem.LinkConfig{Name: "vl2-sw", Rate: vl2SwitchRate, Delay: dcDelay, QueueLimit: dcQueue}

	for t := 0; t < cfg.ToRs; t++ {
		for h := 0; h < vl2HostsPerToR; h++ {
			g.biLink(v.host(t*vl2HostsPerToR+h), v.tor(t), server)
		}
		g.biLink(v.tor(t), v.agg(v.torAgg(t, 0)), sw)
		g.biLink(v.tor(t), v.agg(v.torAgg(t, 1)), sw)
	}
	for a := 0; a < cfg.Switches; a++ {
		for i := 0; i < cfg.Switches; i++ {
			g.biLink(v.agg(a), v.inter(i), sw)
		}
	}
	return v, nil
}

// Hosts returns the host count.
func (v *VL2) Hosts() int { return v.cfg.ToRs * vl2HostsPerToR }

func (v *VL2) host(h int) int32  { return vl2HostBase + int32(h) }
func (v *VL2) tor(t int) int32   { return vl2ToRBase + int32(t) }
func (v *VL2) agg(a int) int32   { return vl2AggBase + int32(a) }
func (v *VL2) inter(i int) int32 { return vl2IntBase + int32(i) }

// torAgg returns the a-th (0 or 1) aggregation switch of ToR t.
func (v *VL2) torAgg(t, a int) int {
	if a == 0 {
		return t % v.cfg.Switches
	}
	return (t + v.cfg.Switches/2) % v.cfg.Switches
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
	ts, td := src/vl2HostsPerToR, dst/vl2HostsPerToR
	out := make([]*netem.Path, 0, n)
	if ts == td {
		for i := 0; i < n; i++ {
			out = append(out, v.g.path(
				fmt.Sprintf("vl2-%d-%d.%d", src, dst, i),
				v.host(src), v.tor(ts), v.host(dst)))
		}
		return out
	}
	h := (src*131 + dst*31) % v.cfg.Switches
	for i := 0; i < n; i++ {
		inter := (i + h) % v.cfg.Switches
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
