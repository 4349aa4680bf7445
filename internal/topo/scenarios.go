package topo

import (
	"fmt"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// Dumbbell is the Fig. 5a scenario: sender hosts reach receiver hosts
// through two shared bottleneck links. Every MPTCP user gets one path over
// each bottleneck; every TCP user gets a single path over one bottleneck.
type Dumbbell struct {
	g *graph

	users      int
	bottleneck [2]*netem.Link // forward direction
}

// DumbbellConfig parameterizes the Fig. 5a scenario.
type DumbbellConfig struct {
	Users          int      // how many per-user access pairs to provision
	BottleneckRate int64    // per-bottleneck capacity (default 100 Mb/s)
	AccessRate     int64    // per-user access capacity (default 1 Gb/s)
	Delay          sim.Time // one-way per-hop delay (default 5 ms)
	QueueLimit     int      // bottleneck queue (default 100)
}

// Node layout: user u's source host is 1000+u, its sink host is 2000+u;
// the two aggregation switches are 1 (ingress) and two egress switches 2, 3
// — bottleneck b runs ingress->egress_b.
const (
	dumbIngress int32 = 1
	dumbEgress0 int32 = 2
	dumbEgress1 int32 = 3
)

// NewDumbbell builds the scenario.
func NewDumbbell(eng *sim.Engine, cfg DumbbellConfig) *Dumbbell {
	if cfg.BottleneckRate == 0 {
		cfg.BottleneckRate = 100 * netem.Mbps
	}
	if cfg.AccessRate == 0 {
		cfg.AccessRate = netem.Gbps
	}
	if cfg.Delay == 0 {
		cfg.Delay = 5 * sim.Millisecond
	}
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = 100
	}
	g := newGraph(eng)
	btl := netem.LinkConfig{Name: "btl", Rate: cfg.BottleneckRate, Delay: cfg.Delay, QueueLimit: cfg.QueueLimit}
	g.biLink(dumbIngress, dumbEgress0, btl)
	g.biLink(dumbIngress, dumbEgress1, btl)
	acc := netem.LinkConfig{Name: "acc", Rate: cfg.AccessRate, Delay: cfg.Delay, QueueLimit: 1000}
	for u := 0; u < cfg.Users; u++ {
		g.biLink(srcHost(u), dumbIngress, acc)
		g.biLink(dumbEgress0, dstHost(u), acc)
		g.biLink(dumbEgress1, dstHost(u), acc)
	}
	return &Dumbbell{
		g:     g,
		users: cfg.Users,
		bottleneck: [2]*netem.Link{
			g.links[[2]int32{dumbIngress, dumbEgress0}],
			g.links[[2]int32{dumbIngress, dumbEgress1}],
		},
	}
}

func srcHost(u int) int32 { return int32(1000 + u) }
func dstHost(u int) int32 { return int32(2000 + u) }

// MPTCPPaths returns user u's two paths, one through each bottleneck.
func (d *Dumbbell) MPTCPPaths(u int) []*netem.Path {
	return []*netem.Path{
		d.g.path(fmt.Sprintf("u%d-b0", u), srcHost(u), dumbIngress, dumbEgress0, dstHost(u)),
		d.g.path(fmt.Sprintf("u%d-b1", u), srcHost(u), dumbIngress, dumbEgress1, dstHost(u)),
	}
}

// TCPPath returns user u's single path through bottleneck b (0 or 1).
func (d *Dumbbell) TCPPath(u, b int) *netem.Path {
	egress := dumbEgress0
	if b == 1 {
		egress = dumbEgress1
	}
	return d.g.path(fmt.Sprintf("u%d-tcp%d", u, b), srcHost(u), dumbIngress, egress, dstHost(u))
}

// Hosts implements Net: one sending host per user.
func (d *Dumbbell) Hosts() int { return d.users }

// Paths implements Net: n subflows over user src's two routes, one through
// each bottleneck. dst is ignored — every user has its own sink.
func (d *Dumbbell) Paths(src, _, n int) []*netem.Path { return Fan(d.MPTCPPaths(src), n) }

// TwoPath is the Fig. 5b scenario: one sender-receiver pair connected by
// two independent paths whose quality flips between Good and Bad as bursty
// cross traffic comes and goes. CrossEntry(i) exposes the link cross
// traffic must be injected into.
type TwoPath = NPath

// TwoPathConfig parameterizes the Fig. 5b scenario.
type TwoPathConfig struct {
	Rate       int64    // per-path capacity (default 100 Mb/s)
	Delay      sim.Time // one-way path delay (default 10 ms)
	QueueLimit int      // per-path queue (default 100)

	// Rates, when non-zero, overrides Rate per path (index 0 and 1) so the
	// two paths can have asymmetric capacity.
	Rates [2]int64
}

// NewTwoPath builds the scenario: sender 0, receiver 1, relay switches 10
// and 11, one per path.
func NewTwoPath(eng *sim.Engine, cfg TwoPathConfig) *TwoPath {
	for i := range cfg.Rates {
		if cfg.Rates[i] == 0 {
			cfg.Rates[i] = cfg.Rate
		}
	}
	return NewNPath(eng,
		NPathSpec{Rate: cfg.Rates[0], Delay: cfg.Delay, Queue: cfg.QueueLimit},
		NPathSpec{Rate: cfg.Rates[1], Delay: cfg.Delay, Queue: cfg.QueueLimit})
}

// HetWireless is the Fig. 17 scenario: a mobile sender with a WiFi path
// (10 Mb/s, 40 ms; index 0, through AP node 10) and a 4G path (20 Mb/s,
// 100 ms; index 1, through base station 11), DropTail queues of 50 packets,
// as in the paper's ns-2 setup.
type HetWireless = NPath

// HetWirelessConfig parameterizes the Fig. 17 scenario; zero values take
// the paper's settings.
type HetWirelessConfig struct {
	WiFiRate  int64
	WiFiDelay sim.Time
	LTERate   int64
	LTEDelay  sim.Time
	Queue     int
	// WiFiLoss adds random loss on the WiFi link (wireless error), 0 by
	// default as in the paper's base setup.
	WiFiLoss float64
}

// NewHetWireless builds the scenario.
func NewHetWireless(eng *sim.Engine, cfg HetWirelessConfig) *HetWireless {
	if cfg.WiFiRate == 0 {
		cfg.WiFiRate = 10 * netem.Mbps
	}
	if cfg.WiFiDelay == 0 {
		cfg.WiFiDelay = 40 * sim.Millisecond
	}
	if cfg.LTERate == 0 {
		cfg.LTERate = 20 * netem.Mbps
	}
	if cfg.LTEDelay == 0 {
		cfg.LTEDelay = 100 * sim.Millisecond
	}
	if cfg.Queue == 0 {
		cfg.Queue = 50
	}
	return NewNPath(eng,
		NPathSpec{Name: "wifi", Rate: cfg.WiFiRate, Delay: cfg.WiFiDelay, Queue: cfg.Queue, Loss: cfg.WiFiLoss},
		NPathSpec{Name: "lte", Rate: cfg.LTERate, Delay: cfg.LTEDelay, Queue: cfg.Queue})
}

// EC2VPC is the Fig. 10 scenario: hosts with four elastic network
// interfaces, each on its own subnet, giving four routes between every
// host pair. ENI capacity is 256 Mb/s as in the paper.
type EC2VPC struct {
	g     *graph
	hosts int
	nets  int
}

// EC2Config parameterizes the VPC.
type EC2Config struct {
	Hosts   int      // default 40
	Subnets int      // default 4 (= ENIs per host)
	ENIRate int64    // default 256 Mb/s
	Delay   sim.Time // default 250 us intra-DC hop
	// MarkThreshold enables DCTCP-style ECN marking on the ENI links.
	MarkThreshold int
}

// NewEC2VPC builds the VPC.
func NewEC2VPC(eng *sim.Engine, cfg EC2Config) *EC2VPC {
	if cfg.Hosts == 0 {
		cfg.Hosts = 40
	}
	if cfg.Subnets == 0 {
		cfg.Subnets = 4
	}
	if cfg.ENIRate == 0 {
		cfg.ENIRate = 256 * netem.Mbps
	}
	if cfg.Delay == 0 {
		cfg.Delay = 250 * sim.Microsecond
	}
	g := newGraph(eng)
	// Nodes: host h = 1000+h; subnet switch s = 1+s. Every host has one
	// ENI (link) to every subnet switch.
	lc := netem.LinkConfig{Name: "eni", Rate: cfg.ENIRate, Delay: cfg.Delay, QueueLimit: 100, MarkThreshold: cfg.MarkThreshold}
	for h := 0; h < cfg.Hosts; h++ {
		for s := 0; s < cfg.Subnets; s++ {
			g.biLink(int32(1000+h), int32(1+s), lc)
		}
	}
	return &EC2VPC{g: g, hosts: cfg.Hosts, nets: cfg.Subnets}
}

// Hosts returns the host count.
func (v *EC2VPC) Hosts() int { return v.hosts }

// Paths returns up to n routes between two hosts, one per subnet. The
// routes are built once per (src, dst, n) and shared by every caller; see
// FatTree.Paths.
func (v *EC2VPC) Paths(src, dst, n int) []*netem.Path {
	if n <= 0 || n > v.nets {
		n = v.nets
	}
	return v.g.paths(src, dst, n, v.buildPaths)
}

func (v *EC2VPC) buildPaths(src, dst, n int) []*netem.Path {
	out := make([]*netem.Path, 0, n)
	h := (src + dst) % v.nets
	for s := 0; s < n; s++ {
		subnet := (s + h) % v.nets
		out = append(out, v.g.path(
			fmt.Sprintf("h%d-h%d-net%d", src, dst, subnet),
			int32(1000+src), int32(1+subnet), int32(1000+dst)))
	}
	return out
}
