package topo

import "mptcpsim/internal/netem"

// Switches returns (k+1)·n^k.
func (b *BCube) Switches() int {
	return b.dim * pow(b.cfg.N, b.cfg.K)
}

// Links exposes every link.
func (b *BCube) Links() []*netem.Link { return b.g.Links() }

// Switches returns the number of switches, 5k²/4.
func (f *FatTree) Switches() int { return 5 * f.k * f.k / 4 }

// CrossEntry returns the forward link of path i that cross traffic shares
// (the second hop, keeping the sender's access hop clean — the same
// convention as Pair.CrossEntry).
func (n *NPath) CrossEntry(i int) *netem.Link { return n.paths[i].Forward[1] }

// Links exposes every link for utilization accounting.
func (n *NPath) Links() []*netem.Link { return n.g.Links() }

// Bottlenecks returns the two shared forward bottleneck links.
func (d *Dumbbell) Bottlenecks() [2]*netem.Link { return d.bottleneck }

// Links exposes every link for utilization accounting.
func (v *EC2VPC) Links() []*netem.Link { return v.g.Links() }

// Switches returns the switch count.
func (v *VL2) Switches() int { return v.cfg.ToRs + 2*v.cfg.Switches }

// Links exposes every link.
func (v *VL2) Links() []*netem.Link { return v.g.Links() }
