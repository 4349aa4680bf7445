package netem

import (
	"fmt"
	"math/rand"
	"testing"

	"mptcpsim/internal/sim"
)

// The finish-time Link is checked differentially against refLink, the
// two-event link it replaced: one schedule of arrivals and reconfigurations,
// decoded from bytes, runs on each, and the two must agree on every packet's
// fate and, after every step, on every counter. FuzzLinkReference explores
// schedules; refCases holds the reconfiguration shapes most likely to go
// wrong.
//
// The two links differ by design when an arrival or reconfiguration falls on
// the exact instant a packet departs: refLink orders them by event sequence,
// Link always retires the departure first (TestLinkTieDepartureFirst). The
// schedules cannot produce that tie: every rate makes TxTime a multiple of
// 1 µs, so a depart instant is congruent mod 1 µs to the arrival that opened
// its busy period, and step i runs at an instant congruent to i+1.

// dut is what a schedule needs of a link; both implementations have it.
type dut interface {
	Enqueue(p *Packet)
	SetDown()
	SetUp()
	SetRate(rate int64)
	SetDelay(d sim.Time)
	SetLossProb(p float64)
	Arrived() uint64
	Delivered() uint64
	Dropped() uint64
	RandDropped() uint64
	OutageDropped() uint64
	QueueLen() int
	BytesDelivered() uint64
	Utilization() float64
}

type stepKind uint8

const (
	stepData stepKind = iota
	stepAck
	stepDown
	stepUp
	stepRate
	stepDelay
	stepLoss
	stepProbe
)

// step is one instant of a schedule. Every step doubles as a probe.
type step struct {
	at   sim.Time
	kind stepKind
	arg  int64 // size in bytes, rate in b/s, delay in ns, loss in percent
}

// refRates keep every TxTime a whole number of microseconds.
var refRates = [...]int64{1 * Mbps, 2 * Mbps, 4 * Mbps, 8 * Mbps}

const maxSteps = 999 // step residues i+1 must stay below 1 µs

// decodeSchedule turns bytes into a link configuration and a schedule: five
// header bytes, then three per step (kind, gap to the previous step in units
// of 50 µs, argument). Any input decodes to a tie-free schedule.
func decodeSchedule(data []byte) (LinkConfig, []step) {
	var hdr [5]byte
	copy(hdr[:], data)
	cfg := LinkConfig{
		Name:          "dut",
		Rate:          refRates[hdr[0]%4],
		Delay:         sim.Time(hdr[0]/4) * 37 * sim.Microsecond,
		QueueLimit:    int(hdr[1]%12) + 1,
		MarkThreshold: int(hdr[2] % 6),
		PriceRho:      float64(hdr[3] >> 1 & 1),
		PriceGamma:    float64(hdr[3]>>2&1) * 0.5,
		PriceQTarget:  int(hdr[3] >> 3 & 3),
		LossProb:      float64(hdr[4]%4) * 0.1,
	}
	var steps []step
	var base sim.Time
	for data = data[min(len(data), len(hdr)):]; len(data) >= 3 && len(steps) < maxSteps; data = data[3:] {
		base += sim.Time(data[1]) * 50 * sim.Microsecond
		st := step{at: base + sim.Time(len(steps)+1)}
		arg := int64(data[2])
		switch k := data[0] % 20; {
		case k < 10:
			st.kind, st.arg = stepData, 40+arg*6
		case k < 14:
			st.kind, st.arg = stepAck, 40+arg%8
		case k == 14:
			st.kind = stepDown
		case k == 15:
			st.kind = stepUp
		case k == 16:
			st.kind, st.arg = stepRate, refRates[arg%4]
		case k == 17:
			st.kind, st.arg = stepDelay, arg*29*int64(sim.Microsecond)
		case k == 18:
			st.kind, st.arg = stepLoss, arg%50
		default:
			st.kind = stepProbe
		}
		steps = append(steps, st)
	}
	return cfg, steps
}

// fate is what became of one arriving packet: the counter its arrival moved
// (none when it was admitted), and when and how it came out the far end.
type fate struct {
	queueDrop, randDrop, outageDrop bool
	deliveredAt                     sim.Time // -1: never
	ce                              bool
	price                           float64
}

// counters is one probe of everything a link reports.
type counters struct {
	at                                                    sim.Time
	arrived, delivered, dropped, randDropped, outageDrops uint64
	queueLen                                              int
	bytesDelivered                                        uint64
	utilization                                           float64
}

func probe(eng *sim.Engine, l dut) counters {
	return counters{eng.Now(), l.Arrived(), l.Delivered(), l.Dropped(), l.RandDropped(),
		l.OutageDropped(), l.QueueLen(), l.BytesDelivered(), l.Utilization()}
}

// fateSink is the far end: packet Seq indexes fates.
type fateSink struct {
	eng   *sim.Engine
	fates []fate
}

func (s *fateSink) Receive(p *Packet) {
	f := &s.fates[p.Seq]
	if f.deliveredAt >= 0 {
		panic(fmt.Sprintf("packet %d delivered twice", p.Seq))
	}
	f.deliveredAt, f.ce, f.price = s.eng.Now(), p.CE, p.Price
}

// runSchedule plays steps on the link mk builds and returns every packet's
// fate and the probe taken after every step, plus one a second after the
// last, when everything has drained.
func runSchedule(cfg LinkConfig, steps []step, mk func(*sim.Engine, LinkConfig) dut) ([]fate, []counters) {
	eng := sim.NewEngine(1)
	l := mk(eng, cfg)
	sink := &fateSink{eng: eng}
	var probes []counters
	for _, st := range steps {
		st := st
		eng.Schedule(st.at, func() {
			switch st.kind {
			case stepData, stepAck:
				before := probe(eng, l)
				p := &Packet{Seq: int64(len(sink.fates)), Size: int32(st.arg), IsAck: st.kind == stepAck}
				sink.fates = append(sink.fates, fate{deliveredAt: -1})
				p.SetRoute(nil, sink) // the link under test is the whole route
				l.Enqueue(p)
				f := &sink.fates[p.Seq]
				f.queueDrop = l.Dropped() > before.dropped
				f.randDrop = l.RandDropped() > before.randDropped
				f.outageDrop = l.OutageDropped() > before.outageDrops
			case stepDown:
				l.SetDown()
			case stepUp:
				l.SetUp()
			case stepRate:
				l.SetRate(st.arg)
			case stepDelay:
				l.SetDelay(sim.Time(st.arg))
			case stepLoss:
				l.SetLossProb(float64(st.arg) / 100)
			}
			probes = append(probes, probe(eng, l))
		})
	}
	// Not Drain: the two links' last events differ, the final probe must not.
	end := sim.Second
	if len(steps) > 0 {
		end += steps[len(steps)-1].at
	}
	eng.Run(end)
	return sink.fates, append(probes, probe(eng, l))
}

// checkAgainstReference runs one schedule on both links, compares, and
// returns the final probe.
func checkAgainstReference(t *testing.T, cfg LinkConfig, steps []step) counters {
	t.Helper()
	wantFates, wantProbes := runSchedule(cfg, steps, func(e *sim.Engine, c LinkConfig) dut { return newRefLink(e, c) })
	gotFates, gotProbes := runSchedule(cfg, steps, func(e *sim.Engine, c LinkConfig) dut { return NewLink(e, c) })
	for i := range wantFates {
		if gotFates[i] != wantFates[i] {
			t.Fatalf("packet %d: fate %+v, reference %+v\ncfg %+v\nsteps %v", i, gotFates[i], wantFates[i], cfg, steps)
		}
	}
	for i := range wantProbes {
		if gotProbes[i] != wantProbes[i] {
			t.Fatalf("probe %d: %+v, reference %+v\ncfg %+v\nsteps %v", i, gotProbes[i], wantProbes[i], cfg, steps)
		}
		if c := gotProbes[i]; c.arrived != c.delivered+c.dropped+c.randDropped+c.outageDrops+uint64(c.queueLen) {
			t.Fatalf("probe %d breaks conservation: %+v", i, c)
		}
	}
	return gotProbes[len(gotProbes)-1]
}

// refCases are the reconfigurations a finish-time queue has to re-time by
// hand, at 8 Mb/s where a 1000-byte packet serializes in exactly 1 ms.
var refCases = []struct {
	name  string
	cfg   LinkConfig
	steps []step
}{
	{"down mid-serialization, up before depart",
		LinkConfig{Rate: 8 * Mbps, Delay: 100 * sim.Microsecond, QueueLimit: 8},
		[]step{{1, stepData, 1000}, {2, stepData, 1000}, {3, stepAck, 40},
			{500_004, stepDown, 0}, {600_005, stepData, 1000}, {700_006, stepUp, 0},
			{800_007, stepData, 500}, {900_008, stepProbe, 0}, {1_200_009, stepProbe, 0}}},
	{"down mid-serialization, up after depart",
		LinkConfig{Rate: 8 * Mbps, Delay: 100 * sim.Microsecond, QueueLimit: 8},
		[]step{{1, stepData, 1000}, {2, stepData, 1000},
			{500_003, stepDown, 0}, {900_004, stepProbe, 0}, {1_100_005, stepProbe, 0},
			{1_500_006, stepUp, 0}, {1_600_007, stepData, 1000}}},
	{"down, up and down again before depart",
		LinkConfig{Rate: 8 * Mbps, Delay: 100 * sim.Microsecond, QueueLimit: 8},
		[]step{{1, stepData, 1000}, {2, stepData, 1000}, {300_003, stepDown, 0}, {400_004, stepUp, 0},
			{500_005, stepData, 1000}, {600_006, stepDown, 0}, {700_007, stepDelay, 5000},
			{800_008, stepRate, 2 * Mbps}, {2_000_009, stepUp, 0}, {2_100_010, stepData, 1000}}},
	{"drain outage keeps scheduled deliveries",
		LinkConfig{Rate: 8 * Mbps, Delay: 100 * sim.Microsecond, QueueLimit: 8},
		[]step{{1, stepData, 1000}, {2, stepData, 1000}, {3, stepData, 1000},
			{500_004, stepDown, 0}, {600_005, stepData, 1000}, {1_500_006, stepRate, 4 * Mbps},
			{2_500_007, stepUp, 0}, {2_600_008, stepData, 1000}}},
	{"SetRate and SetDelay with a full queue",
		LinkConfig{Rate: 8 * Mbps, Delay: 300 * sim.Microsecond, QueueLimit: 5, MarkThreshold: 2, PriceRho: 1, PriceGamma: 0.5, PriceQTarget: 1},
		[]step{{1, stepData, 1000}, {2, stepData, 700}, {3, stepAck, 40}, {4, stepData, 1500},
			{5, stepData, 1000}, {6, stepData, 1000}, {7, stepData, 1000},
			{300_008, stepRate, 1 * Mbps}, {400_009, stepData, 1000}, {1_200_010, stepDelay, 50_000},
			{1_300_011, stepData, 1000}, {5_000_012, stepRate, 8 * Mbps}, {5_100_013, stepDelay, 2_000_000},
			{5_200_014, stepData, 1000}, {9_000_015, stepProbe, 0}}},
}

func TestLinkMatchesReference(t *testing.T) {
	for _, c := range refCases {
		t.Run(c.name, func(t *testing.T) { checkAgainstReference(t, c.cfg, c.steps) })
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(16))
		var seen counters
		for i := 0; i < 400; i++ {
			data := make([]byte, 5+3*(20+rng.Intn(400)))
			rng.Read(data)
			cfg, steps := decodeSchedule(data)
			last := checkAgainstReference(t, cfg, steps)
			seen.delivered += last.delivered
			seen.dropped += last.dropped
			seen.randDropped += last.randDropped
			seen.outageDrops += last.outageDrops
		}
		// The schedules must reach every fate, or agreement means little.
		if seen.delivered == 0 || seen.dropped == 0 || seen.randDropped == 0 || seen.outageDrops == 0 {
			t.Errorf("the random schedules never reached some fate: %+v", seen)
		}
	})
}

func FuzzLinkReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		data := make([]byte, 5+3*60)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, steps := decodeSchedule(data)
		checkAgainstReference(t, cfg, steps)
	})
}

// TestLinkTieDepartureFirst pins the tie rule. Two equal-rate hops back to
// back: packet k reaches the second as packet k-1 finishes serializing on
// it, and sees it gone — a one-packet queue drops nothing and a mark
// threshold of one marks nothing. (refLink, ordering the two by event
// sequence, drops or marks depending on which was scheduled first.)
func TestLinkTieDepartureFirst(t *testing.T) {
	eng := sim.NewEngine(1)
	a := NewLink(eng, LinkConfig{Name: "a", Rate: 8 * Mbps, Delay: 10 * sim.Microsecond, QueueLimit: 64})
	b := NewLink(eng, LinkConfig{Name: "b", Rate: 8 * Mbps, Delay: 10 * sim.Microsecond, QueueLimit: 1, MarkThreshold: 1})
	c := &collector{eng: eng}
	const n = 32
	for i := int64(0); i < n; i++ {
		sendOne(eng, []*Link{a, b}, c, 1000, i)
	}
	eng.Drain()
	if len(c.pkts) != n || b.Dropped() != 0 {
		t.Fatalf("delivered %d of %d, second hop dropped %d: an arrival saw the packet departing at its instant", len(c.pkts), n, b.Dropped())
	}
	for _, p := range c.pkts {
		if p.CE {
			t.Fatalf("packet %d marked: it arrived as its predecessor departed and should have found the queue empty", p.Seq)
		}
	}
	if got, want := c.at[n-1], n*a.TxTime(1000)+b.TxTime(1000)+20*sim.Microsecond; got != want {
		t.Errorf("last delivery at %v, want %v", got, want)
	}
}

// refLink is the two-event link as it stood before the finish-time queue,
// kept verbatim as the oracle (only the type names and the int32 Size
// conversion differ). Link is a unidirectional link: a DropTail FIFO drained at line rate, with
// each departing packet delivered to its next hop after the propagation
// delay. Propagation overlaps the serialization of subsequent packets.
type refLink struct {
	eng *sim.Engine
	cfg LinkConfig

	queue refRing
	busy  bool
	down  bool

	txDoneFn func() // cached method value for the hot path

	// Counters, exported via methods.
	arrived     uint64
	delivered   uint64
	dropped     uint64
	randDropped uint64
	outageDrops uint64
	bytesOut    uint64
	busyTime    sim.Time
	lastTxStart sim.Time
}

// newRefLink creates a link driven by eng.
func newRefLink(eng *sim.Engine, cfg LinkConfig) *refLink {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("netem: link %q has non-positive rate %d", cfg.Name, cfg.Rate))
	}
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = DefaultQueueLimit
	}
	l := &refLink{eng: eng, cfg: cfg}
	l.txDoneFn = l.txDone
	return l
}

// Name returns the configured link name.
func (l *refLink) Name() string { return l.cfg.Name }

// Rate returns the line rate in bits per second.
func (l *refLink) Rate() int64 { return l.cfg.Rate }

// Delay returns the one-way propagation delay.
func (l *refLink) Delay() sim.Time { return l.cfg.Delay }

// QueueLen reports the number of packets currently queued or in
// serialization.
func (l *refLink) QueueLen() int { return l.queue.len() }

// QueueLimit reports the DropTail capacity in packets.
func (l *refLink) QueueLimit() int { return l.cfg.QueueLimit }

// Arrived reports packets presented to the link via Enqueue, whatever their
// fate. At any instant Arrived = Delivered + Dropped + RandDropped +
// OutageDropped + QueueLen — the conservation identity internal/check
// asserts.
func (l *refLink) Arrived() uint64 { return l.arrived }

// Delivered reports packets fully forwarded to their next hop.
func (l *refLink) Delivered() uint64 { return l.delivered }

// Dropped reports packets lost to queue overflow.
func (l *refLink) Dropped() uint64 { return l.dropped }

// RandDropped reports packets lost to the random-loss model.
func (l *refLink) RandDropped() uint64 { return l.randDropped }

// OutageDropped reports packets lost to link-down periods: arrivals while
// down.
func (l *refLink) OutageDropped() uint64 { return l.outageDrops }

// LossProb returns the current random-loss probability.
func (l *refLink) LossProb() float64 { return l.cfg.LossProb }

// Down reports whether the link is administratively down.
func (l *refLink) Down() bool { return l.down }

// SetDown takes the link down: arriving packets are dropped (counted in
// OutageDropped) until SetUp. Already-queued packets drain onto the wire.
func (l *refLink) SetDown() { l.down = true }

// SetUp brings the link back up and resumes serving whatever survived the
// outage.
func (l *refLink) SetUp() {
	if !l.down {
		return
	}
	l.down = false
	if !l.busy && l.queue.len() > 0 {
		l.startTx()
	}
}

// SetRate changes the line rate. Packets already in serialization finish at
// the old rate; subsequent packets serialize at the new one.
func (l *refLink) SetRate(rate int64) {
	if rate <= 0 {
		panic(fmt.Sprintf("netem: link %q rate set to non-positive %d", l.cfg.Name, rate))
	}
	l.cfg.Rate = rate
}

// SetDelay changes the one-way propagation delay for packets that finish
// serialization after the call.
func (l *refLink) SetDelay(d sim.Time) {
	if d < 0 {
		d = 0
	}
	l.cfg.Delay = d
}

// SetLossProb changes the random-loss probability for subsequent arrivals.
func (l *refLink) SetLossProb(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	l.cfg.LossProb = p
}

// BytesDelivered reports the payload bytes fully forwarded.
func (l *refLink) BytesDelivered() uint64 { return l.bytesOut }

// Utilization reports the fraction of the interval [0, now] the link spent
// serializing packets.
func (l *refLink) Utilization() float64 {
	now := l.eng.Now()
	if now == 0 {
		return 0
	}
	busy := l.busyTime
	if l.busy {
		busy += now - l.lastTxStart
	}
	return float64(busy) / float64(now)
}

// TxTime returns the serialization delay of a packet of size bytes.
func (l *refLink) TxTime(size int) sim.Time {
	return sim.Time(int64(size) * 8 * int64(sim.Second) / l.cfg.Rate)
}

// SetPrice enables the energy price on an existing link (topology builders
// call it for switch-to-switch links, the set Eq. 6 charges).
func (l *refLink) SetPrice(rho, gamma float64, qTarget int) {
	l.cfg.PriceRho = rho
	l.cfg.PriceGamma = gamma
	l.cfg.PriceQTarget = qTarget
}

// Price returns the link's current energy price contribution.
func (l *refLink) Price() float64 {
	if l.cfg.PriceRho == 0 && l.cfg.PriceGamma == 0 {
		return 0
	}
	excess := l.queue.len() - l.cfg.PriceQTarget
	if excess < 0 {
		excess = 0
	}
	return l.cfg.PriceRho + l.cfg.PriceGamma*float64(excess)
}

// Enqueue admits a packet to the link, dropping it when the queue is full or
// the random-loss model fires. Admitted packets may be ECN-marked and
// accumulate the link's energy price.
func (l *refLink) Enqueue(p *Packet) {
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
	if l.queue.len() >= l.cfg.QueueLimit {
		l.dropped++
		p.Release()
		return
	}
	if l.cfg.MarkThreshold > 0 && l.queue.len() >= l.cfg.MarkThreshold && !p.IsAck {
		p.CE = true
	}
	if !p.IsAck {
		p.Price += l.Price()
	}
	l.queue.push(p, l.cfg.QueueLimit)
	if !l.busy {
		l.startTx()
	}
}

func (l *refLink) startTx() {
	l.busy = true
	l.lastTxStart = l.eng.Now()
	l.eng.ScheduleAfter(l.TxTime(int(l.queue.front().Size)), l.txDoneFn)
}

// txDone completes serialization of the head-of-line packet.
func (l *refLink) txDone() {
	p := l.queue.pop()
	l.busyTime += l.eng.Now() - l.lastTxStart
	l.delivered++
	l.bytesOut += uint64(p.Size)
	l.eng.AtHandler(l.eng.Now()+l.cfg.Delay, p)
	if l.queue.len() > 0 {
		l.startTx()
	} else {
		l.busy = false
	}
}

// refRing is a fixed-capacity FIFO of packets backing a link's DropTail
// queue. The previous queue was a plain slice advanced with queue[1:] and
// refilled with append, which regrows the backing array perpetually (every
// element of the array is used exactly once); the ring reuses its backing
// array forever, so a link in steady state never allocates. Capacity grows
// geometrically up to the link's queue limit and then stays fixed — the
// limit itself may be large (fuzzed configs), so it is not allocated
// eagerly.
type refRing struct {
	buf  []*Packet
	head int
	n    int
}

// refRingInitialCap is the smallest backing array a non-empty ring allocates.
const refRingInitialCap = 16

func (r *refRing) len() int { return r.n }

// front returns the oldest packet without removing it.
func (r *refRing) front() *Packet { return r.buf[r.head] }

// push appends a packet, growing toward limit if the backing array is full.
// The caller enforces the queue limit; pushing past it panics via index
// arithmetic only after grow declines to exceed limit.
func (r *refRing) push(p *Packet, limit int) {
	if r.n == len(r.buf) {
		r.grow(limit)
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = p
	r.n++
}

// pop removes and returns the oldest packet.
func (r *refRing) pop() *Packet {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	if r.n == 0 {
		r.head = 0
	}
	return p
}

func (r *refRing) grow(limit int) {
	newCap := 2 * len(r.buf)
	if newCap == 0 {
		newCap = refRingInitialCap
	}
	if newCap > limit {
		newCap = limit
	}
	if newCap <= r.n {
		panic("netem: ring grown past its queue limit")
	}
	buf := make([]*Packet, newCap)
	m := copy(buf, r.buf[r.head:])
	copy(buf[m:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
