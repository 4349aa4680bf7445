package netem

import (
	"fmt"

	"mptcpsim/internal/sim"
)

// Bandwidth constants in bits per second.
const (
	Kbps int64 = 1000
	Mbps       = 1000 * Kbps
	Gbps       = 1000 * Mbps
)

// DefaultQueueLimit is the DropTail queue capacity used when a LinkConfig
// leaves QueueLimit zero. It matches common simulator defaults (htsim, ns-2).
const DefaultQueueLimit = 100

// LinkConfig describes one unidirectional link. The numbers Enqueue reads
// come first and fill one cache line of the Link that embeds the config;
// Name, which no hop reads, comes last.
type LinkConfig struct {
	Rate  int64    // line rate, bits per second
	Delay sim.Time // one-way propagation delay

	// QueueLimit is the DropTail capacity in packets (DefaultQueueLimit when 0).
	QueueLimit int

	// MarkThreshold, when positive, sets the ECN CE codepoint on packets
	// that arrive to a queue of at least this many packets (DCTCP-style
	// step marking).
	MarkThreshold int

	// LossProb drops arriving packets at random with this probability,
	// modelling a lossy (e.g. wireless) medium. Zero disables it.
	LossProb float64

	// PriceRho and PriceGamma configure the per-link energy price that data
	// packets accumulate in transit: rho + gamma*max(0, qlen-PriceQTarget).
	// The paper's U_ep (Eq. 6) charges this only on switch-to-switch links,
	// so topology builders set it there and leave it zero elsewhere.
	PriceRho     float64
	PriceGamma   float64
	PriceQTarget int

	Name string
}

// Link is a unidirectional link: a DropTail FIFO drained at line rate, each
// packet reaching its next hop one propagation delay after it leaves the
// queue. Propagation overlaps the serialization of subsequent packets.
//
// It is a finish-time queue, not the textbook two-event link. Admission fixes
// a packet's departure, depart = max(now, busyUntil) + TxTime(size), and
// schedules its one event on this hop: arrival at the next, at depart + Delay.
// Nothing fires at depart: every reader of the queue (DropTail, ECN, Price,
// the counters) first calls settle, which retires the entries whose depart
// has passed, so a departure precedes an arrival at the same instant — the
// link's tie rule. A reconfiguration cancels or re-arms the arrival events of
// undeparted packets through the handle each carries, and so ends as on the
// two-event link. The deviation is kept because the benchmark says so: the
// serialization-done event decided nothing and was half of all events
// (churn-mice cpu_s −38 %, EXPERIMENTS.md "One event per packet per hop").
//
// Field order is the cache-line map (TestHopLayout pins it): a hop into a
// link that last moved a packet milliseconds ago pays for each 64-byte line
// it touches, and the object is 256 bytes so that its size class aligns it.
//
//	line 0  the queue: what settle and the admission decision read
//	line 1  the eight numbers of cfg that Enqueue reads
//	line 2  cfg's tail, then what an admission writes and nothing waits for
//	line 3  the drop counters
type Link struct {
	eng       *sim.Engine
	busyUntil sim.Time // depart of the newest admitted packet
	// headDepart is the oldest entry of queue while there is one, so that
	// settling a queue of at most one packet never reads the ring's array.
	headDepart sim.Time
	queue      departRing // departs of the admitted, undeparted packets, oldest first
	down       bool

	cfg LinkConfig

	tail *Packet // the newest queued packet; the rest chain back through prev

	// Counters, exported via methods. sent and sentBytes cover what was
	// admitted, queued or departed; busyTime is spent by busyUntil.
	arrived   uint64
	sent      uint64
	sentBytes uint64
	busyTime  sim.Time

	dropped     uint64
	randDropped uint64
	outageDrops uint64

	_ [48]byte
}

// NewLink creates a link driven by eng.
func NewLink(eng *sim.Engine, cfg LinkConfig) *Link {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("netem: link %q has non-positive rate %d", cfg.Name, cfg.Rate))
	}
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = DefaultQueueLimit
	}
	return &Link{eng: eng, cfg: cfg}
}

// Name returns the configured link name.
func (l *Link) Name() string { return l.cfg.Name }

// Rate returns the line rate in bits per second.
func (l *Link) Rate() int64 { return l.cfg.Rate }

// Delay returns the one-way propagation delay.
func (l *Link) Delay() sim.Time { return l.cfg.Delay }

// QueueLen reports the number of packets currently queued or in
// serialization.
func (l *Link) QueueLen() int { return l.settle() }

// QueueLimit reports the DropTail capacity in packets.
func (l *Link) QueueLimit() int { return l.cfg.QueueLimit }

// Arrived reports packets presented to the link via Enqueue, whatever their
// fate. At any instant Arrived = Delivered + Dropped + RandDropped +
// OutageDropped + QueueLen — the conservation identity internal/check
// asserts.
func (l *Link) Arrived() uint64 { return l.arrived }

// Delivered reports packets fully forwarded to their next hop.
func (l *Link) Delivered() uint64 { return l.sent - uint64(l.settle()) }

// Dropped reports packets lost to queue overflow.
func (l *Link) Dropped() uint64 { return l.dropped }

// RandDropped reports packets lost to the random-loss model.
func (l *Link) RandDropped() uint64 { return l.randDropped }

// OutageDropped reports packets lost to link-down periods: arrivals while
// down.
func (l *Link) OutageDropped() uint64 { return l.outageDrops }

// LossProb returns the current random-loss probability.
func (l *Link) LossProb() float64 { return l.cfg.LossProb }

// Down reports whether the link is administratively down.
func (l *Link) Down() bool { return l.down }

// SetDown takes the link down: arriving packets are dropped (counted in
// OutageDropped) until SetUp. Already-queued packets drain onto the wire —
// a scheduled outage that stops admitting new traffic.
func (l *Link) SetDown() { l.down = true }

// SetUp brings the link back up.
func (l *Link) SetUp() { l.down = false }

// SetRate changes the line rate. Packets already in serialization finish at
// the old rate; subsequent packets serialize at the new one.
func (l *Link) SetRate(rate int64) {
	if rate <= 0 {
		panic(fmt.Sprintf("netem: link %q rate set to non-positive %d", l.cfg.Name, rate))
	}
	l.cfg.Rate = rate
	l.rearm()
}

// SetDelay changes the one-way propagation delay for packets that finish
// serialization after the call.
func (l *Link) SetDelay(d sim.Time) {
	l.cfg.Delay = max(d, 0)
	l.rearm()
}

// SetLossProb changes the random-loss probability for subsequent arrivals.
func (l *Link) SetLossProb(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	l.cfg.LossProb = p
}

// TxTime returns the serialization delay of a packet of size bytes.
func (l *Link) TxTime(size int) sim.Time {
	return sim.Time(int64(size) * 8 * int64(sim.Second) / l.cfg.Rate)
}

// SetPrice enables the energy price on an existing link (topology builders
// call it for switch-to-switch links, the set Eq. 6 charges).
func (l *Link) SetPrice(rho, gamma float64, qTarget int) {
	l.cfg.PriceRho = rho
	l.cfg.PriceGamma = gamma
	l.cfg.PriceQTarget = qTarget
}

// Price returns the link's current energy price contribution.
func (l *Link) Price() float64 {
	if l.cfg.PriceRho == 0 && l.cfg.PriceGamma == 0 {
		return 0
	}
	return l.cfg.PriceRho + l.cfg.PriceGamma*float64(max(0, l.QueueLen()-l.cfg.PriceQTarget))
}

// Enqueue admits a packet to the link, dropping it when the queue is full or
// the random-loss model fires. Admitted packets may be ECN-marked and
// accumulate the link's energy price.
func (l *Link) Enqueue(p *Packet) {
	l.arrived++
	if l.down {
		l.outageDrops++
		p.Release()
		return
	}
	if l.cfg.LossProb > 0 && l.eng.Rand().Float64() < l.cfg.LossProb {
		l.randDropped++
		p.Release()
		return
	}
	qlen := l.settle()
	if qlen >= l.cfg.QueueLimit {
		l.dropped++
		p.Release()
		return
	}
	if l.cfg.MarkThreshold > 0 && qlen >= l.cfg.MarkThreshold && !p.IsAck {
		p.CE = true
	}
	if !p.IsAck {
		p.Price += l.Price()
	}
	tx := l.TxTime(int(p.Size))
	l.busyUntil = max(l.eng.Now(), l.busyUntil) + tx
	l.busyTime += tx
	l.sent++
	l.sentBytes += uint64(p.Size)
	if qlen == 0 {
		l.headDepart = l.busyUntil
	}
	l.queue.push(l.busyUntil, l.cfg.QueueLimit)
	p.prev, l.tail = l.tail, p
	p.timer = l.eng.AtHandler(l.busyUntil+l.cfg.Delay, p)
}

// settle retires the queue entries that have departed and returns the queue
// length. Their packets are in flight or recycled and are not touched.
func (l *Link) settle() int {
	for now := l.eng.Now(); l.queue.len() > 0 && l.headDepart <= now; {
		if l.queue.pop(); l.queue.len() > 0 {
			l.headDepart = *l.queue.at(0)
		}
	}
	return l.queue.len()
}

// queued returns the packets in the queue, oldest first, following prev back
// from the tail no further than the queue is long: beyond that the chain
// leads to packets that have departed and are no longer the link's to read.
func (l *Link) queued() []*Packet {
	ps := make([]*Packet, l.settle())
	for i, p := len(ps)-1, l.tail; i >= 0; i, p = i-1, p.prev {
		ps[i] = p
	}
	return ps
}

// rearm re-times what has not departed after a reconfiguration: the head is
// mid-serialization and keeps its depart, each packet behind it departs one
// TxTime at the current rate later, every arrival moves to depart + Delay.
func (l *Link) rearm() {
	ps := l.queued()
	if len(ps) == 0 {
		return
	}
	depart := l.headDepart
	for i, p := range ps {
		if i > 0 {
			depart += l.TxTime(int(p.Size))
			*l.queue.at(i) = depart
		}
		p.timer.Stop()
		p.timer = l.eng.AtHandler(depart+l.cfg.Delay, p)
	}
	l.busyTime += depart - l.busyUntil
	l.busyUntil = depart
}
