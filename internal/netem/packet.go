// Package netem provides the packet-level network elements of the simulator:
// packets, links with finite-rate serialization and DropTail/ECN queues, and
// source-routed forwarding between them.
package netem

import "mptcpsim/internal/sim"

// Endpoint consumes packets at the end of a route. Transport receivers and
// senders (for ACKs) implement it.
type Endpoint interface {
	Receive(p *Packet)
}

// Packet is a simulated network packet. Sequence and acknowledgement numbers
// are in MSS units (one data packet carries one segment); Size is the wire
// size in bytes and is what links serialize. The small fields are 32 bits
// wide and the flags share a word so that the link's timer and prev cost the
// struct nothing (TestPacketSizeBudget).
type Packet struct {
	// Flow identifies the transport flow; Subflow the MPTCP subflow index
	// within it. Both are carried for tracing and demultiplexing.
	Flow    uint64
	Subflow int32

	Size int32 // wire size in bytes
	Seq  int64 // data: segment sequence number
	Ack  int64 // ack: cumulative acknowledgement (next expected Seq)

	// SackSeq, on ACKs, is the sequence number of the data segment whose
	// arrival generated this ACK — per-segment selective acknowledgement,
	// the idealized equivalent of the SACK option.
	SackSeq int64

	// SentAt is the simulated send time of a data packet. EchoedAt carries
	// it back on the corresponding ACK, giving the sender an exact RTT
	// sample (the TCP timestamp option, idealized).
	SentAt   sim.Time
	EchoedAt sim.Time

	// Price accumulates per-link energy prices on data packets (Eq. 6-9 of
	// the paper, carried as in-band telemetry). EchoPrice returns it on ACKs.
	Price     float64
	EchoPrice float64

	IsAck bool

	// CE is the ECN Congestion Experienced codepoint, set by marking queues
	// on data packets. ECE echoes it back on ACKs (for DCTCP).
	CE  bool
	ECE bool

	pooled bool
	hop    int32

	route []*Link
	dst   Endpoint
	fwdFn func()

	// timer is the packet's arrival event at its next hop, held so the link
	// it is crossing can cancel or re-time it (Link.cut, Link.rearm); prev is
	// the packet admitted to that link before this one (Link.queued).
	timer sim.Timer
	prev  *Packet

	pool *Pool
	gen  uint64
}

// poolMaxFree bounds each free list; beyond it released packets fall back to
// the garbage collector, so a transient burst cannot pin memory forever.
const poolMaxFree = 4096

// Pool is a generation-counted packet free list, the packet-side twin of the
// engine's event recycling: Release bumps the packet's generation and pushes
// it on the list, Get pops and re-zeroes it. A pool belongs to one simulation
// domain (a Path, a traffic generator) and therefore one engine, so unlike
// the sync.Pool it replaces it needs no synchronization and recycles across
// the whole run instead of per-GC-cycle. Its lifetime is its owner's: a
// path's pool lasts as long as the topology that owns the path, across every
// flow sent over it. The zero value is ready to use.
type Pool struct {
	free []*Packet
}

// Get returns a zeroed packet, recycled from the free list when possible.
// Get on a nil pool degrades to a plain allocation, so consumers can pass
// through the pool of whatever packet they are answering without caring
// whether it was pooled at all.
func (pl *Pool) Get() *Packet {
	if pl == nil {
		return &Packet{}
	}
	n := len(pl.free)
	if n == 0 {
		return &Packet{pool: pl}
	}
	p := pl.free[n-1]
	pl.free[n-1] = nil
	pl.free = pl.free[:n-1]
	// The forward closure is bound to this same pointer and survives reuse;
	// the generation counter survives so stale holders stay detectable.
	fn, gen := p.fwdFn, p.gen
	*p = Packet{}
	p.fwdFn, p.pool, p.gen = fn, pl, gen
	return p
}

// FreeLen reports the packets currently parked on the free list.
func (pl *Pool) FreeLen() int { return len(pl.free) }

// NewPacket returns a freshly allocated, unpooled packet. Hot paths allocate
// from a Pool instead; plain packets remain fine for tests and one-shot use,
// and Release on them is a no-op.
func NewPacket() *Packet {
	return &Packet{}
}

// Release returns the packet to its pool. Only the final consumer — the
// endpoint that fully processed it, or the link that dropped it — may call
// it, and the packet must not be touched afterwards: the generation bump
// makes the retired incarnation detectable, and a double release panics.
func (p *Packet) Release() {
	if p.pool == nil {
		return
	}
	if p.pooled {
		panic("netem: packet released twice")
	}
	p.pooled = true
	p.gen++
	if len(p.pool.free) < poolMaxFree {
		p.pool.free = append(p.pool.free, p)
	}
}

// Pool returns the pool the packet was allocated from (nil for plain
// packets). Endpoints that emit a reply use it so the reply recycles in the
// same domain as the packet that provoked it.
func (p *Packet) Pool() *Pool { return p.pool }

// Gen returns the packet's recycle generation: a holder that recorded it at
// allocation can detect that the packet has since been released and reused.
func (p *Packet) Gen() uint64 { return p.gen }

// SetRoute assigns the chain of links the packet will traverse and the
// endpoint that consumes it after the last link.
func (p *Packet) SetRoute(links []*Link, dst Endpoint) {
	p.route = links
	p.hop = 0
	p.dst = dst
}

// Send injects the packet into the first link of its route, or delivers it
// directly when the route is empty (loopback).
func (p *Packet) Send() {
	if p.pooled {
		panic("netem: packet used after release")
	}
	p.forward()
}

// fwd returns a cached closure over forward, so scheduling a hop does not
// allocate.
func (p *Packet) fwd() func() {
	if p.fwdFn == nil {
		p.fwdFn = p.forward
	}
	return p.fwdFn
}

func (p *Packet) forward() {
	p.prev = nil // off the last link's chain: it must not keep that link's history alive
	if int(p.hop) >= len(p.route) {
		p.dst.Receive(p)
		return
	}
	l := p.route[p.hop]
	p.hop++
	l.Enqueue(p)
}
