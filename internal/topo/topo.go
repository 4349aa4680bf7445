// Package topo builds the network scenarios of the paper's evaluation:
// the two-bottleneck sharing scenario (Fig. 5a), the two-path traffic-
// shifting scenario (Fig. 5b), the EC2 VPC (Fig. 10), the three datacenter
// topologies FatTree, VL2 and BCube (Fig. 11-16), and the heterogeneous
// wireless WiFi+4G scenario (Fig. 17).
//
// Builders wire netem.Links between integer node IDs and enumerate
// multipath routes between hosts as netem.Paths ready for mptcp.New. Every
// world's link rates, delays and queues are the paper's, fixed as
// constants beside its builder; a builder takes only its size. The one-pair
// worlds are NPaths of explicit specs, named in the registry, whose
// twopath entry alone reads rates, delay and queue from Params.
package topo

import (
	"fmt"
	"sort"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// The datacenter fabrics' links: FatTree and BCube run every link at
// dcRate, VL2 its server and switch links at its own two rates, and all
// three share the per-hop delay and the DropTail queue. The paper prints
// "100ms links"; we read that as the htsim-typical 100 us — at 100 ms per
// hop a datacenter path's bandwidth-delay product dwarfs any realistic
// switch buffer and every algorithm collapses, which is clearly not what
// the paper simulated.
const (
	dcRate  = 100 * netem.Mbps
	dcDelay = 100 * sim.Microsecond
	dcQueue = 100
)

// graph tracks directed links between node IDs, creating each once, and
// owns the routes enumerated over them.
type graph struct {
	eng   *sim.Engine
	links map[[2]int32]*netem.Link

	// routes memoises Paths(src, dst, n): a host pair's n routes are built
	// on the first request and handed out again on every later one, so the
	// topology owns its paths exactly as NPath owns its own. That is what lets a path's packet pool outlive any one flow:
	// every flow of a host pair sends over the same *netem.Path, and the
	// packets the last flow released are the ones the next flow sends. The
	// map is bounded by host pairs × the subflow counts asked for.
	routes map[pathsKey][]*netem.Path
}

// pathsKey is one Paths request.
type pathsKey struct{ src, dst, n int }

func newGraph(eng *sim.Engine) *graph {
	return &graph{
		eng:    eng,
		links:  make(map[[2]int32]*netem.Link),
		routes: make(map[pathsKey][]*netem.Path),
	}
}

// paths answers Paths(src, dst, n) from the memo, calling build on the
// first request only. The slice is returned with cap == len, so a caller's
// append copies instead of writing into the memo; its elements are shared
// and read-only.
func (g *graph) paths(src, dst, n int, build func(src, dst, n int) []*netem.Path) []*netem.Path {
	key := pathsKey{src, dst, n}
	ps, ok := g.routes[key]
	if !ok {
		ps = build(src, dst, n)
		ps = ps[:len(ps):len(ps)]
		g.routes[key] = ps
	}
	return ps
}

// biLink creates both directions of an edge with the same configuration.
func (g *graph) biLink(a, b int32, cfg netem.LinkConfig) {
	g.dirLink(a, b, cfg)
	g.dirLink(b, a, cfg)
}

func (g *graph) dirLink(from, to int32, cfg netem.LinkConfig) {
	key := [2]int32{from, to}
	if _, ok := g.links[key]; ok {
		return
	}
	cfg.Name = fmt.Sprintf("%s:%d->%d", cfg.Name, from, to)
	g.links[key] = netem.NewLink(g.eng, cfg)
}

// chain resolves the directed links along a node sequence; it panics on a
// missing edge, which is always a builder bug.
func (g *graph) chain(nodes ...int32) []*netem.Link {
	out := make([]*netem.Link, 0, len(nodes)-1)
	for i := 0; i+1 < len(nodes); i++ {
		l, ok := g.links[[2]int32{nodes[i], nodes[i+1]}]
		if !ok {
			panic(fmt.Sprintf("topo: no link %d->%d", nodes[i], nodes[i+1]))
		}
		out = append(out, l)
	}
	return out
}

// path builds a bidirectional netem.Path along a node sequence, using the
// reversed sequence for ACKs.
func (g *graph) path(name string, nodes ...int32) *netem.Path {
	rev := make([]int32, len(nodes))
	for i, n := range nodes {
		rev[len(nodes)-1-i] = n
	}
	return &netem.Path{
		Name:    name,
		Forward: g.chain(nodes...),
		Reverse: g.chain(rev...),
	}
}

// Links returns every link in the network (for counters and utilization
// sweeps).
func (g *graph) Links() []*netem.Link {
	return g.linksWhere(func([2]int32) bool { return true })
}

// linksWhere returns the links whose (from, to) key satisfies pred, in
// key order. Callers slice and index the result — fault schedules pick
// links[0] to kill — so the order must not depend on map iteration, or
// two runs of the same seed would fault different links.
func (g *graph) linksWhere(pred func(key [2]int32) bool) []*netem.Link {
	keys := make([][2]int32, 0, len(g.links))
	for key := range g.links {
		if pred(key) {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]*netem.Link, len(keys))
	for i, key := range keys {
		out[i] = g.links[key]
	}
	return out
}
