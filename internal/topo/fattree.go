package topo

import (
	"fmt"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// FatTree is the k-ary fat tree of Al-Fares et al. (SIGCOMM 2008). The
// paper's configuration — 128 hosts, 80 switches, 100 Mb/s links — is
// exactly FatTree(k=8): 32 edge + 32 aggregation + 16 core switches.
type FatTree struct {
	g *graph
	k int
}

// FatTreeConfig sizes the fat tree; K 0 takes the paper's k=8. Every link
// runs at dcRate with dcDelay and a dcQueue-packet queue.
type FatTreeConfig struct {
	K int
}

// Node ID blocks. Hosts live at 100000+h.
const (
	ftHostBase int32 = 100000
	ftEdgeBase int32 = 1000
	ftAggBase  int32 = 2000
	ftCoreBase int32 = 3000
)

// NewFatTree builds the topology. k must be even.
func NewFatTree(eng *sim.Engine, cfg FatTreeConfig) (*FatTree, error) {
	k := cfg.K
	if k == 0 {
		k = 8
	}
	if k%2 != 0 || k < 2 {
		return nil, fmt.Errorf("topo: fat tree arity k=%d must be even and >= 2", k)
	}
	g := newGraph(eng)
	lc := netem.LinkConfig{Name: "ft", Rate: dcRate, Delay: dcDelay, QueueLimit: dcQueue}
	half := k / 2
	ft := &FatTree{g: g, k: k}

	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			// Hosts under edge(p, e).
			for h := 0; h < half; h++ {
				g.biLink(ft.host(p*half*half+e*half+h), ft.edge(p, e), lc)
			}
			// Edge to every aggregation switch in the pod.
			for a := 0; a < half; a++ {
				g.biLink(ft.edge(p, e), ft.agg(p, a), lc)
			}
		}
		// Aggregation a connects to core group a.
		for a := 0; a < half; a++ {
			for o := 0; o < half; o++ {
				g.biLink(ft.agg(p, a), ft.core(a, o), lc)
			}
		}
	}
	return ft, nil
}

// Hosts returns the number of hosts, k³/4.
func (f *FatTree) Hosts() int { return f.k * f.k * f.k / 4 }

func (f *FatTree) host(h int) int32    { return ftHostBase + int32(h) }
func (f *FatTree) edge(p, e int) int32 { return ftEdgeBase + int32(p*(f.k/2)+e) }
func (f *FatTree) agg(p, a int) int32  { return ftAggBase + int32(p*(f.k/2)+a) }
func (f *FatTree) core(g, o int) int32 { return ftCoreBase + int32(g*(f.k/2)+o) }
func (f *FatTree) podOf(h int) int     { return h / (f.k * f.k / 4) }
func (f *FatTree) edgeIdxOf(h int) int { return (h % (f.k * f.k / 4)) / (f.k / 2) }

// Paths returns n routes from src to dst, spread over the distinct
// equal-cost routes (different core switches across pods, different
// aggregation switches within a pod). When n exceeds the distinct routes
// available, routes repeat — the MPTCP path manager's multiple subflows
// per physical route (the kernel's num_subflows parameter).
//
// The routes of a (src, dst, n) request are built once and belong to the
// topology: every call returns the same *netem.Path values, shared by all
// flows between the two hosts. Callers must not modify them.
func (f *FatTree) Paths(src, dst, n int) []*netem.Path {
	if src == dst {
		return nil
	}
	return f.g.paths(src, dst, n, f.buildPaths)
}

func (f *FatTree) buildPaths(src, dst, n int) []*netem.Path {
	half := f.k / 2
	ps, pd := f.podOf(src), f.podOf(dst)
	es, ed := f.edgeIdxOf(src), f.edgeIdxOf(dst)
	out := make([]*netem.Path, 0, n)

	// Spread route choices by a per-pair offset, the ECMP-style hashing
	// real fabrics do; without it every pair would collide on the same
	// core switch.
	h := (src*131 + dst*31) % (half * half)
	switch {
	case ps != pd:
		for i := 0; i < n; i++ {
			gIdx := (i + h) % half
			o := (i/half + h/half) % half
			out = append(out, f.g.path(
				fmt.Sprintf("ft%d-%d.%d", src, dst, i),
				f.host(src), f.edge(ps, es), f.agg(ps, gIdx),
				f.core(gIdx, o),
				f.agg(pd, gIdx), f.edge(pd, ed), f.host(dst)))
		}
	case es != ed:
		for i := 0; i < n; i++ {
			a := (i + h) % half
			out = append(out, f.g.path(
				fmt.Sprintf("ft%d-%d.%d", src, dst, i),
				f.host(src), f.edge(ps, es), f.agg(ps, a), f.edge(pd, ed), f.host(dst)))
		}
	default:
		for i := 0; i < n; i++ {
			out = append(out, f.g.path(
				fmt.Sprintf("ft%d-%d.%d", src, dst, i),
				f.host(src), f.edge(ps, es), f.host(dst)))
		}
	}
	return out
}

// Links exposes every link.
func (f *FatTree) Links() []*netem.Link { return f.g.Links() }

// SwitchLinks returns the switch-to-switch links (edge-agg and agg-core),
// the set the extended DTS prices (Eq. 6 charges only inter-switch links),
// in deterministic (from, to) key order so fault schedules that index into
// the slice target the same physical link on every run.
func (f *FatTree) SwitchLinks() []*netem.Link {
	return f.g.linksWhere(func(key [2]int32) bool {
		return key[0] >= ftEdgeBase && key[0] < ftHostBase && key[1] >= ftEdgeBase && key[1] < ftHostBase
	})
}
