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

// The dumbbell's links: 100 Mb/s bottlenecks with 100-packet queues,
// 1 Gb/s access links with 1000-packet ones, 5 ms one-way on every hop.
const (
	dumbBottleneckRate int64 = 100 * netem.Mbps
	dumbAccessRate     int64 = netem.Gbps
	dumbDelay                = 5 * sim.Millisecond
	dumbQueue                = 100
)

// Node layout: user u's source host is 1000+u, its sink host is 2000+u;
// the two aggregation switches are 1 (ingress) and two egress switches 2, 3
// — bottleneck b runs ingress->egress_b.
const (
	dumbIngress int32 = 1
	dumbEgress0 int32 = 2
	dumbEgress1 int32 = 3
)

// NewDumbbell builds the scenario with access pairs for users users.
func NewDumbbell(eng *sim.Engine, users int) *Dumbbell {
	g := newGraph(eng)
	btl := netem.LinkConfig{Name: "btl", Rate: dumbBottleneckRate, Delay: dumbDelay, QueueLimit: dumbQueue}
	g.biLink(dumbIngress, dumbEgress0, btl)
	g.biLink(dumbIngress, dumbEgress1, btl)
	acc := netem.LinkConfig{Name: "acc", Rate: dumbAccessRate, Delay: dumbDelay, QueueLimit: 1000}
	for u := 0; u < users; u++ {
		g.biLink(srcHost(u), dumbIngress, acc)
		g.biLink(dumbEgress0, dstHost(u), acc)
		g.biLink(dumbEgress1, dstHost(u), acc)
	}
	return &Dumbbell{
		g:     g,
		users: users,
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

// EC2VPC is the Fig. 10 scenario: hosts with four elastic network
// interfaces, each on its own subnet, giving four routes between every
// host pair. ENI capacity is 256 Mb/s as in the paper.
type EC2VPC struct {
	g     *graph
	hosts int
}

// The VPC's links: every host has an ENI on each of ec2Subnets subnets,
// at the paper's 256 Mb/s with a 250 us intra-DC hop, and marks ECN at
// ec2MarkThreshold packets. Only dctcp reads the mark; without it the
// Fig. 10 dctcp row would be plain reno.
const (
	ec2Subnets             = 4
	ec2ENIRate       int64 = 256 * netem.Mbps
	ec2Delay               = 250 * sim.Microsecond
	ec2MarkThreshold       = 20
)

// NewEC2VPC builds the VPC with hosts hosts (0 takes the paper's 40).
func NewEC2VPC(eng *sim.Engine, hosts int) *EC2VPC {
	if hosts == 0 {
		hosts = 40
	}
	g := newGraph(eng)
	// Nodes: host h = 1000+h; subnet switch s = 1+s. Every host has one
	// ENI (link) to every subnet switch.
	lc := netem.LinkConfig{Name: "eni", Rate: ec2ENIRate, Delay: ec2Delay, QueueLimit: 100, MarkThreshold: ec2MarkThreshold}
	for h := 0; h < hosts; h++ {
		for s := 0; s < ec2Subnets; s++ {
			g.biLink(int32(1000+h), int32(1+s), lc)
		}
	}
	return &EC2VPC{g: g, hosts: hosts}
}

// Hosts returns the host count.
func (v *EC2VPC) Hosts() int { return v.hosts }

// Paths returns up to n routes between two hosts, one per subnet. The
// routes are built once per (src, dst, n) and shared by every caller; see
// FatTree.Paths.
func (v *EC2VPC) Paths(src, dst, n int) []*netem.Path {
	if n <= 0 || n > ec2Subnets {
		n = ec2Subnets
	}
	return v.g.paths(src, dst, n, v.buildPaths)
}

func (v *EC2VPC) buildPaths(src, dst, n int) []*netem.Path {
	out := make([]*netem.Path, 0, n)
	h := (src + dst) % ec2Subnets
	for s := 0; s < n; s++ {
		subnet := (s + h) % ec2Subnets
		out = append(out, v.g.path(
			fmt.Sprintf("h%d-h%d-net%d", src, dst, subnet),
			int32(1000+src), int32(1+subnet), int32(1000+dst)))
	}
	return out
}
