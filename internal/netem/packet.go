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
// size in bytes and is what links serialize.
//
// Field order is the cache-line map, not a grouping by meaning. Between two
// hops a packet sleeps for milliseconds, so its hop event meets it cold and
// pays for every 64-byte line it touches (TestHopLayout pins the map):
//
//	line 0  what Fire and Link.Enqueue read and write on every hop
//	line 1  timer, which Link.Enqueue writes on every hop, and what only the
//	        last hop, a release or a reconfiguration reads
//	line 2  what only the endpoints read
//
// The small fields are 32 bits wide and the flags share a word so that line 0
// holds them all; the struct is padded to 192 bytes because Go's 192-byte
// size class is 64-aligned and the 176-byte one is not.
type Packet struct {
	route []*Link
	// next is route[hop], loaded when the previous hop fired, so that a hop
	// event never waits for the route's backing array; nil past the last link.
	next *Link
	// prev is the packet admitted to the link being crossed before this one
	// (Link.queued).
	prev *Packet

	// Price accumulates per-link energy prices on data packets (Eq. 6-9 of
	// the paper, carried as in-band telemetry). EchoPrice returns it on ACKs.
	Price float64

	Size int32 // wire size in bytes
	// Subflow is the MPTCP subflow index within Flow. Both are carried for
	// tracing and demultiplexing.
	Subflow int32
	hop     int32

	IsAck bool
	// CE is the ECN Congestion Experienced codepoint, set by marking queues
	// on data packets. ECE echoes it back on ACKs (for DCTCP).
	CE     bool
	ECE    bool
	pooled bool

	// Line 1.
	dst Endpoint
	// timer is the packet's arrival event at its next hop, held so the link
	// it is crossing can re-time it (Link.rearm).
	timer sim.Timer
	pool  *Pool
	gen   uint64

	// Flow identifies the transport flow.
	Flow uint64

	// Line 2.
	Seq int64 // data: segment sequence number
	Ack int64 // ack: cumulative acknowledgement (next expected Seq)

	// SackSeq, on ACKs, is the sequence number of the data segment whose
	// arrival generated this ACK — per-segment selective acknowledgement,
	// the idealized equivalent of the SACK option.
	SackSeq int64

	// SentAt is the simulated send time of a data packet. EchoedAt carries
	// it back on the corresponding ACK, giving the sender an exact RTT
	// sample (the TCP timestamp option, idealized).
	SentAt   sim.Time
	EchoedAt sim.Time

	EchoPrice float64

	_ [16]byte
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
	// The generation counter survives so stale holders stay detectable.
	gen := p.gen
	*p = Packet{}
	p.pool, p.gen = pl, gen
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

// SetRoute assigns the chain of links the packet will traverse and the
// endpoint that consumes it after the last link.
func (p *Packet) SetRoute(links []*Link, dst Endpoint) {
	p.route = links
	p.hop = 0
	p.next = p.linkAt(0)
	p.dst = dst
}

// linkAt returns route[i], nil past the last link.
func (p *Packet) linkAt(i int32) *Link {
	if int(i) < len(p.route) {
		return p.route[i]
	}
	return nil
}

// Send injects the packet into the first link of its route, or delivers it
// directly when the route is empty (loopback).
func (p *Packet) Send() {
	if p.pooled {
		panic("netem: packet used after release")
	}
	p.Fire()
}

// Fire moves the packet one hop on: into the next link of its route, or to
// its endpoint after the last. It implements sim.Handler — a link schedules
// the packet itself as its arrival event at the next hop.
func (p *Packet) Fire() {
	p.prev = nil // off the last link's chain: it must not keep that link's history alive
	l := p.next
	if l == nil {
		p.dst.Receive(p)
		return
	}
	p.hop++
	p.next = p.linkAt(p.hop)
	l.Enqueue(p)
}
