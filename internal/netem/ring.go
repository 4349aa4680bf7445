package netem

import "mptcpsim/internal/sim"

// departRing is a fixed-capacity FIFO backing a link's DropTail queue: one
// departure instant per queued packet, oldest first. It holds instants, not
// packets (the link reaches those through Packet.prev): retiring a departed
// entry must read the ring alone, the packet may by then be recycled into
// another queue, and a slot stays 8 bytes. The backing array is reused
// forever, so a link in steady state never allocates; it grows geometrically
// up to the link's queue limit — which may be large (fuzzed configs), so it
// is not allocated eagerly — and then stays fixed.
type departRing struct {
	buf     []sim.Time
	head, n uint32 // 32 bits each: the ring is 32 of the 64 bytes of Link's first line
}

// ringInitialCap is the smallest backing array a non-empty ring allocates.
const ringInitialCap = 16

func (r *departRing) len() int { return int(r.n) }

// at returns the i-th oldest entry without removing it.
func (r *departRing) at(i int) *sim.Time {
	i += int(r.head)
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

// push appends an entry, growing toward limit if the backing array is full.
// The caller enforces the queue limit; grow panics rather than exceed it.
func (r *departRing) push(t sim.Time, limit int) {
	if int(r.n) == len(r.buf) {
		r.grow(limit)
	}
	r.n++
	*r.at(int(r.n) - 1) = t
}

// pop removes the oldest entry. An emptied ring restarts at the front of its
// array.
func (r *departRing) pop() {
	r.head++
	r.n--
	if r.n == 0 || int(r.head) == len(r.buf) {
		r.head = 0
	}
}

func (r *departRing) grow(limit int) {
	newCap := 2 * len(r.buf)
	if newCap == 0 {
		newCap = ringInitialCap
	}
	if newCap > limit {
		newCap = limit
	}
	if newCap <= int(r.n) {
		panic("netem: ring grown past its queue limit")
	}
	buf := make([]sim.Time, newCap)
	m := copy(buf, r.buf[r.head:])
	copy(buf[m:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
