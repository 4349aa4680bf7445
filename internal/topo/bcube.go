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

// BCubeConfig parameterizes the cube; zero values take BCube(5, 2) with
// the paper's 100 Mb/s links.
type BCubeConfig struct {
	N          int // switch port count / digit base
	K          int // levels - 1
	Rate       int64
	Delay      sim.Time
	QueueLimit int

	// UseDetours also enumerates the longer altered paths that relay
	// through extra intermediate servers (Guo et al.'s BuildPathSet).
	// They add path diversity but consume ~2x the link capacity per bit,
	// so the default assigns extra subflows to the k+1 short disjoint
	// rotation paths instead, as the htsim MPTCP evaluation does.
	UseDetours bool
}

func (c BCubeConfig) withDefaults() BCubeConfig {
	if c.N == 0 {
		c.N = 5
	}
	if c.K == 0 {
		c.K = 2
	}
	if c.Rate == 0 {
		c.Rate = 100 * netem.Mbps
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
	bcHostBase   int32 = 100000
	bcSwitchBase int32 = 1000
)

// NewBCube builds the topology.
func NewBCube(eng *sim.Engine, cfg BCubeConfig) (*BCube, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 2 || cfg.K < 0 {
		return nil, fmt.Errorf("topo: BCube needs n >= 2 and k >= 0, got n=%d k=%d", cfg.N, cfg.K)
	}
	b := &BCube{g: newGraph(eng), cfg: cfg, dim: cfg.K + 1}
	lc := netem.LinkConfig{Name: "bc", Rate: cfg.Rate, Delay: cfg.Delay, QueueLimit: cfg.QueueLimit}
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
// rotation order starting at level start; detour != 0 first moves the
// start digit to an intermediate value (BCube's altered parallel paths).
func (b *BCube) route(src, dst, start, detour int) []int32 {
	nodes := []int32{b.host(src)}
	cur := src
	if detour != 0 && b.dim > 0 {
		level := start % b.dim
		v := (b.digit(dst, level) + detour) % b.cfg.N
		if v != b.digit(cur, level) {
			next := b.setDigit(cur, level, v)
			nodes = b.hopNodes(nodes, cur, level, next)
			cur = next
		}
	}
	for i := 0; i < b.dim; i++ {
		level := (start + i) % b.dim
		if b.digit(cur, level) == b.digit(dst, level) {
			continue
		}
		next := b.setDigit(cur, level, b.digit(dst, level))
		nodes = b.hopNodes(nodes, cur, level, next)
		cur = next
	}
	// A detour may leave the start digit still wrong; the loop above fixes
	// it on its pass, except when the detour landed after its turn.
	for level := 0; level < b.dim; level++ {
		if b.digit(cur, level) != b.digit(dst, level) {
			next := b.setDigit(cur, level, b.digit(dst, level))
			nodes = b.hopNodes(nodes, cur, level, next)
			cur = next
		}
	}
	return nodes
}

// Paths returns n routes between two hosts: the k+1 digit-rotation
// parallel paths (and, with UseDetours, altered paths relaying through
// extra intermediate servers), deduplicated; once the distinct routes run
// out, routes repeat (multiple subflows per route). The routes are built
// once per (src, dst, n) and shared by every caller; see FatTree.Paths.
func (b *BCube) Paths(src, dst, n int) []*netem.Path {
	if src == dst {
		return nil
	}
	return b.g.paths(src, dst, n, b.buildPaths)
}

func (b *BCube) buildPaths(src, dst, n int) []*netem.Path {
	maxDetour := 1
	if b.cfg.UseDetours {
		maxDetour = b.cfg.N
	}
	seen := make(map[string]bool, n)
	var routes [][]int32
	h := (src*131 + dst*31) % b.dim
	for detour := 0; detour < maxDetour && len(routes) < n; detour++ {
		for start := 0; start < b.dim && len(routes) < n; start++ {
			nodes := b.route(src, dst, (start+h)%b.dim, detour)
			key := routeKey(nodes)
			if seen[key] {
				continue
			}
			seen[key] = true
			routes = append(routes, nodes)
		}
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
