package netem

import "mptcpsim/internal/sim"

// Path is one end-to-end route of a (sub)flow: the chain of links data
// packets traverse and the chain ACKs take back. A path belongs to the
// topology that built it, not to a flow: the datacenter topologies hand the
// same Path to every flow between a host pair, concurrent ones included, so
// senders treat it as read-only.
type Path struct {
	Name    string
	Forward []*Link
	Reverse []*Link

	pool Pool
}

// Pool returns the path's packet free list. Every sender over the path draws
// data packets from it; ACKs answer from the same pool via Packet.Pool, so
// the whole round trip recycles in one single-threaded domain. The pool
// lives as long as the path, which is as long as the topology: a short flow
// sends the packets that earlier flows over the path left behind.
func (p *Path) Pool() *Pool { return &p.pool }

// MinRate returns the smallest line rate along the forward direction — the
// path's bottleneck bandwidth.
func (p *Path) MinRate() int64 {
	var min int64
	for _, l := range p.Forward {
		if min == 0 || l.Rate() < min {
			min = l.Rate()
		}
	}
	return min
}

// BaseRTT returns the no-queueing round-trip time for a data packet of
// dataSize bytes acknowledged by an ACK of ackSize bytes: propagation both
// ways plus per-hop serialization.
func (p *Path) BaseRTT(dataSize, ackSize int) sim.Time {
	var rtt sim.Time
	for _, l := range p.Forward {
		rtt += l.Delay() + l.TxTime(dataSize)
	}
	for _, l := range p.Reverse {
		rtt += l.Delay() + l.TxTime(ackSize)
	}
	return rtt
}
