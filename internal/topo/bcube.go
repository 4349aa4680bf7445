package topo

import (
	"fmt"
	"strings"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// BCube is the server-centric hypercube of Guo et al. (SIGCOMM 2009):
// BCube(n, k) has n^(k+1) hosts, each with k+1 ports, and (k+1)·n^k
// n-port switches arranged in k+1 levels. Servers relay traffic between
// levels, which is what gives BCube its many parallel paths. The paper's
// "128 hosts, 64 switches" is approximated by BCube(5, 2): 125 hosts, 75
// switches — the nearest valid BCube of that scale (matching Raiciu et
// al.'s htsim setup, which this paper reuses).
type BCube struct {
	g   *graph
	cfg BCubeConfig
	dim int // k+1 digits
}

// BCubeConfig sizes the cube; zero values take BCube(5, 2). Every link
// runs at dcRate with dcDelay and a dcQueue-packet queue.
type BCubeConfig struct {
	N int // switch port count / digit base
	K int // levels - 1
}

const (
	bcHostBase   int32 = 100000
	bcSwitchBase int32 = 1000
)

// NewBCube builds the topology.
func NewBCube(eng *sim.Engine, cfg BCubeConfig) (*BCube, error) {
	if cfg.N == 0 {
		cfg.N = 5
	}
	if cfg.K == 0 {
		cfg.K = 2
	}
	if cfg.N < 2 || cfg.K < 0 {
		return nil, fmt.Errorf("topo: BCube needs n >= 2 and k >= 0, got n=%d k=%d", cfg.N, cfg.K)
	}
	b := &BCube{g: newGraph(eng), cfg: cfg, dim: cfg.K + 1}
	lc := netem.LinkConfig{Name: "bc", Rate: dcRate, Delay: dcDelay, QueueLimit: dcQueue}
	for h := 0; h < b.Hosts(); h++ {
		for level := 0; level < b.dim; level++ {
			b.g.biLink(b.host(h), b.swit(level, b.switchIdx(h, level)), lc)
		}
	}
	return b, nil
}

// Hosts returns n^(k+1).
func (b *BCube) Hosts() int {
	return pow(b.cfg.N, b.dim)
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

func (b *BCube) host(h int) int32 { return bcHostBase + int32(h) }

func (b *BCube) swit(level, idx int) int32 {
	return bcSwitchBase + int32(level*pow(b.cfg.N, b.cfg.K)+idx)
}

// digit returns digit `level` of host h in base n.
func (b *BCube) digit(h, level int) int {
	return h / pow(b.cfg.N, level) % b.cfg.N
}

// setDigit returns h with digit `level` replaced by v.
func (b *BCube) setDigit(h, level, v int) int {
	p := pow(b.cfg.N, level)
	return h - b.digit(h, level)*p + v*p
}

// switchIdx returns the index of the level-`level` switch adjacent to host
// h: the host's digits with digit `level` removed.
func (b *BCube) switchIdx(h, level int) int {
	lowPow := pow(b.cfg.N, level)
	low := h % lowPow
	high := h / (lowPow * b.cfg.N)
	return high*lowPow + low
}

// hopNodes appends the two links of one server hop — through the level
// switch from cur to next — as node IDs.
func (b *BCube) hopNodes(nodes []int32, cur, level, next int) []int32 {
	return append(nodes, b.swit(level, b.switchIdx(cur, level)), b.host(next))
}

// route builds the node sequence from src to dst correcting digits in
// rotation order starting at level start.
func (b *BCube) route(src, dst, start int) []int32 {
	nodes := []int32{b.host(src)}
	cur := src
	for i := 0; i < b.dim; i++ {
		level := (start + i) % b.dim
		if b.digit(cur, level) == b.digit(dst, level) {
			continue
		}
		next := b.setDigit(cur, level, b.digit(dst, level))
		nodes = b.hopNodes(nodes, cur, level, next)
		cur = next
	}
	return nodes
}

// Paths returns n routes between two hosts: the k+1 digit-rotation
// parallel paths, deduplicated; once the distinct routes run out, routes
// repeat (multiple subflows per route). Guo et al.'s longer altered paths,
// which relay through extra intermediate servers, are not enumerated: they
// consume ~2x the link capacity per bit, so extra subflows go to the short
// disjoint rotation paths instead, as the htsim MPTCP evaluation does. The
// routes are built once per (src, dst, n) and shared by every caller; see
// FatTree.Paths.
func (b *BCube) Paths(src, dst, n int) []*netem.Path {
	if src == dst {
		return nil
	}
	return b.g.paths(src, dst, n, b.buildPaths)
}

func (b *BCube) buildPaths(src, dst, n int) []*netem.Path {
	seen := make(map[string]bool, n)
	var routes [][]int32
	h := (src*131 + dst*31) % b.dim
	for start := 0; start < b.dim && len(routes) < n; start++ {
		nodes := b.route(src, dst, (start+h)%b.dim)
		key := routeKey(nodes)
		if seen[key] {
			continue
		}
		seen[key] = true
		routes = append(routes, nodes)
	}
	out := make([]*netem.Path, 0, n)
	for i := 0; i < n; i++ {
		nodes := routes[i%len(routes)]
		out = append(out, b.g.path(fmt.Sprintf("bc%d-%d.%d", src, dst, i), nodes...))
	}
	return out
}

func routeKey(nodes []int32) string {
	var sb strings.Builder
	for _, n := range nodes {
		fmt.Fprintf(&sb, "%d,", n)
	}
	return sb.String()
}
