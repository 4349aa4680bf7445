package flows

import (
	"fmt"

	"mptcpsim/internal/check"
	"mptcpsim/internal/energy"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
)

// Net is the topology surface the manager places flows on: the datacenter
// topologies (FatTree, VL2, BCube) and the EC2 VPC all satisfy it.
type Net = topo.Net

// ClassMix is one class's share of the arrival stream.
type ClassMix struct {
	Class  Class
	Weight float64
}

// Report is one flow's lifecycle outcome: emitted exactly once per offered
// flow — on completion, on admission shed, or on the end-of-run cut — so
// offered load always reconciles against reported flows.
type Report struct {
	ID    uint64
	Class Class
	// At is the instant the outcome was decided (completion, shed or cut).
	At sim.Time
	// Bytes is what the network delivered (completed/cut flows) or what
	// the flow asked for (capacity-shed flows, which never sent anything).
	Bytes uint64
	// FCT is the flow completion time; for cut flows, the time alive.
	FCT sim.Time
	// GoodputBps is Bytes×8/FCT (0 when FCT is 0).
	GoodputBps float64
	// Joules is the flow's attributable energy: the power model evaluated
	// at the flow's operating point, minus the idle floor, integrated over
	// its lifetime.
	Joules float64
	// Subflows the flow ran with (0 for shed flows).
	Subflows int
	// Shed is "" for completed flows, "capacity" for admission drops and
	// "horizon" for flows cut alive at the end of the run.
	Shed string
}

// ShedCapacity and ShedHorizon are the Report.Shed reasons.
const (
	ShedCapacity = "capacity"
	ShedHorizon  = "horizon"
)

// Config parameterizes a Manager.
type Config struct {
	// Algorithm is the congestion-control algorithm every flow runs.
	Algorithm string
	// Subflows per flow (default 2).
	Subflows int
	// Arrivals drives session creation (default Poisson at 100 flows/s).
	Arrivals Arrivals
	// TotalFlows stops the arrival process after this many offered flows;
	// it must be positive (an open-loop run needs a defined population).
	TotalFlows int
	// MaxConcurrent is the admission cap: an arrival while this many flows
	// are live is shed with per-class accounting (0 = unlimited).
	MaxConcurrent int
	// Mix is the class mix (defaults to 70% web, 20% bulk, 10% stream).
	// Weights are relative; they need not sum to 1.
	Mix []ClassMix
	// WebSizes and BulkSizes are the per-class size distributions.
	WebSizes, BulkSizes SizeDist
	// Stream parameterizes streaming sessions.
	Stream StreamConfig
	// Emit, when set, receives every flow's Report as its outcome is
	// decided, in simulated-time order. The manager retains only bounded
	// aggregates; streaming per-flow records is the caller's business.
	Emit func(Report)
	// Check, when set, registers a deterministic sample of admitted flows
	// (every CheckSample-th, plus their paths' links) with the invariant
	// checker, unwatching each as it completes so the watched set stays
	// bounded by concurrency.
	Check *check.Invariants
	// CheckSample is the watch sampling stride (default 64).
	CheckSample int
}

func (c Config) withDefaults() Config {
	if c.Subflows <= 0 {
		c.Subflows = 2
	}
	if c.Arrivals == nil {
		c.Arrivals = Poisson{Rate: 100}
	}
	if len(c.Mix) == 0 {
		c.Mix = []ClassMix{{Web, 0.7}, {Bulk, 0.2}, {Stream, 0.1}}
	}
	if c.WebSizes == (SizeDist{}) {
		c.WebSizes = SizeDist{Alpha: 1.2, Min: 16 << 10, Max: 8 << 20}
	}
	if c.BulkSizes == (SizeDist{}) {
		c.BulkSizes = SizeDist{Alpha: 1.3, Min: 256 << 10, Max: 32 << 20}
	}
	c.Stream = c.Stream.withDefaults()
	if c.CheckSample <= 0 {
		c.CheckSample = 64
	}
	return c
}

// Stats is the manager's bounded accounting: every offered flow lands in
// exactly one of Completed, ShedCapacity or Cut, so
// Offered == Completed + ShedCapacity + Cut once the run has drained (the
// zero-silent-loss contract callers should assert).
type Stats struct {
	Offered      uint64
	Admitted     uint64
	Completed    uint64
	ShedCapacity uint64
	Cut          uint64 // alive at CutLive (end of run)

	// Per-class splits, indexed by Class.
	OfferedByClass   [numClasses]uint64
	CompletedByClass [numClasses]uint64
	ShedByClass      [numClasses]uint64
	CutByClass       [numClasses]uint64

	// PeakLive is the maximum concurrent flow count observed.
	PeakLive int
	// OfferedBytes sums every offered flow's requested size (streams count
	// their produced bytes); AckedBytes sums what completed and cut flows
	// actually delivered. The gap is the shed/degraded load.
	OfferedBytes uint64
	AckedBytes   uint64
}

// flowSlot is one pooled per-flow record. Slots are recycled through a
// free list with a generation counter (the engine's timer-slab idiom), so
// a stale handle captured by an old flow's closure can never touch the
// slot's next tenant.
type flowSlot struct {
	gen      uint32
	id       uint64
	class    Class
	conn     *mptcp.Conn
	size     int64
	start    sim.Time
	subflows int
	watched  bool

	// Streaming state (Stream class only).
	streamEnd  sim.Time
	rung       int
	lastAcked  uint64
	chunkTimer sim.Timer
	endTimer   sim.Timer
}

// handle names a slot generation-safely.
type handle struct {
	idx int32
	gen uint32
}

// Manager owns the open-loop flow population on one engine: it draws
// arrivals, admits or sheds, runs each admitted flow on a real mptcp.Conn,
// and keeps bounded aggregate statistics. Nothing it allocates scales with
// TotalFlows: per-flow records are recycled slots, connections are rebuilt
// in place once the simulation has let go of them (see the package
// comment), and per-flow samples leave through Emit.
type Manager struct {
	eng *sim.Engine
	net Net
	cfg Config

	slots []flowSlot
	free  []int32
	live  int

	// closed is the free list of connections release retired
	// (mptcp.Conn.Close), which admissions rebuild in place; built counts
	// the connections made because it was empty.
	closed []*mptcp.Conn
	built  uint64

	mixTotal float64
	stats    Stats
	chunks   uint64 // produced by streaming sessions
	drained  bool
	offering bool
	arriveFn func() // m.arrive, bound once: a method value allocates per use

	// OnDrained, when set, fires once the arrival process has offered
	// TotalFlows and the last live flow has finished — the natural moment
	// to stop the engine.
	OnDrained func()
}

// New creates a manager for net on eng. It validates the config eagerly so
// a misconfigured campaign unit fails at build time, not mid-run.
func New(eng *sim.Engine, net Net, cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if net == nil || net.Hosts() < 2 {
		return nil, fmt.Errorf("flows: need a topology with at least 2 hosts")
	}
	if cfg.TotalFlows <= 0 {
		return nil, fmt.Errorf("flows: Config.TotalFlows must be positive, got %d", cfg.TotalFlows)
	}
	m := &Manager{eng: eng, net: net, cfg: cfg}
	m.arriveFn = m.arrive
	for _, mx := range cfg.Mix {
		if mx.Weight < 0 || mx.Class >= numClasses {
			return nil, fmt.Errorf("flows: bad mix entry {%v %v}", mx.Class, mx.Weight)
		}
		m.mixTotal += mx.Weight
	}
	if m.mixTotal <= 0 {
		return nil, fmt.Errorf("flows: class mix has no weight")
	}
	return m, nil
}

// Start begins the arrival process.
func (m *Manager) Start() {
	m.offering = true
	m.scheduleArrival()
}

// Stats returns the current accounting snapshot.
func (m *Manager) Stats() Stats { return m.stats }

// StreamChunks reports how many chunks the streaming sessions have
// produced: their media time in units of StreamConfig.Chunk.
func (m *Manager) StreamChunks() uint64 { return m.chunks }

// Live reports the current concurrent flow count.
func (m *Manager) Live() int { return m.live }

func (m *Manager) scheduleArrival() {
	if int(m.stats.Offered) >= m.cfg.TotalFlows {
		m.offering = false
		m.maybeDrained()
		return
	}
	gap := m.cfg.Arrivals.Next(m.eng.Rand())
	m.eng.After(gap, m.arriveFn)
}

// arrive offers one flow: class, size and endpoints are always drawn in the
// same order, so the random sequence — and every later flow — is identical
// whether this one is admitted or shed.
func (m *Manager) arrive() {
	r := m.eng.Rand()
	class := m.drawClass(r)
	var size int64
	var streamDur sim.Time
	switch class {
	case Web:
		size = m.cfg.WebSizes.Sample(r)
	case Bulk:
		size = m.cfg.BulkSizes.Sample(r)
	case Stream:
		streamDur = expDraw(r, m.cfg.Stream.MeanDur)
		if streamDur < m.cfg.Stream.Chunk {
			streamDur = m.cfg.Stream.Chunk
		}
		// Offered bytes for a stream: the top rung over the session — what
		// the session would consume if the network kept up.
		top := m.cfg.Stream.Ladder[len(m.cfg.Stream.Ladder)-1]
		size = top * int64(streamDur) / int64(sim.Second) / 8
	}
	hosts := m.net.Hosts()
	src := r.Intn(hosts)
	dst := r.Intn(hosts - 1)
	if dst >= src {
		dst++
	}

	m.stats.Offered++
	m.stats.OfferedByClass[class]++
	m.stats.OfferedBytes += uint64(size)
	id := m.stats.Offered

	if m.cfg.MaxConcurrent > 0 && m.live >= m.cfg.MaxConcurrent {
		m.stats.ShedCapacity++
		m.stats.ShedByClass[class]++
		m.report(Report{
			ID: id, Class: class, At: m.eng.Now(), Bytes: uint64(size),
			Shed: ShedCapacity,
		})
		m.scheduleArrival()
		return
	}
	m.admit(id, class, size, streamDur, src, dst)
	m.scheduleArrival()
}

func (m *Manager) drawClass(r rng) Class {
	u := r.Float64() * m.mixTotal
	for _, mx := range m.cfg.Mix {
		if u < mx.Weight {
			return mx.Class
		}
		u -= mx.Weight
	}
	return m.cfg.Mix[len(m.cfg.Mix)-1].Class
}

// alloc takes a slot from the free list or grows the slab.
func (m *Manager) alloc() (int32, *flowSlot) {
	if n := len(m.free); n > 0 {
		idx := m.free[n-1]
		m.free = m.free[:n-1]
		return idx, &m.slots[idx]
	}
	m.slots = append(m.slots, flowSlot{})
	return int32(len(m.slots) - 1), &m.slots[len(m.slots)-1]
}

// release recycles a slot: the generation bump turns every outstanding
// handle into a tombstone and the references the slot held are dropped, so
// from here on nothing but the simulation's own packets and ticks can reach
// the connection. A connection Close retires owns neither and goes on the
// free list; any other — a loss behind it, a stream or a cut flow with data
// still in flight — might never go quiet and is left to the collector.
func (m *Manager) release(idx int32) {
	s := &m.slots[idx]
	s.chunkTimer.Stop()
	s.endTimer.Stop()
	if s.watched && m.cfg.Check != nil {
		m.cfg.Check.Unwatch(s.conn)
	}
	if s.conn.Close() {
		m.closed = append(m.closed, s.conn)
	}
	*s = flowSlot{gen: s.gen + 1}
	m.free = append(m.free, idx)
	m.live--
	m.maybeDrained()
}

func (m *Manager) admit(id uint64, class Class, size int64, streamDur sim.Time, src, dst int) {
	idx, s := m.alloc()
	gen := s.gen
	h := handle{idx: idx, gen: gen}

	cfg := mptcp.Config{Algorithm: m.cfg.Algorithm}
	if class == Stream {
		cfg.AppLimited = true
	} else {
		cfg.TransferBytes = size
	}
	conn := m.conn(cfg, id, m.net.Paths(src, dst, m.cfg.Subflows))

	s.id = id
	s.class = class
	s.conn = conn
	s.size = size
	s.start = m.eng.Now()
	s.subflows = len(conn.Subflows())

	m.stats.Admitted++
	m.live++
	if m.live > m.stats.PeakLive {
		m.stats.PeakLive = m.live
	}
	if m.cfg.Check != nil && (m.stats.Admitted-1)%uint64(m.cfg.CheckSample) == 0 {
		s.watched = true
		m.cfg.Check.Watch(fmt.Sprintf("flow%d", id), conn)
	}

	if class == Stream {
		s.streamEnd = s.start + streamDur
		s.rung = 0
		s.endTimer = m.eng.After(streamDur, func() { m.finish(h, m.eng.Now()) })
		m.streamChunk(h)
	} else {
		conn.OnComplete = func(at sim.Time) { m.finish(h, at) }
	}
	conn.Start()
}

// conn returns the connection for a newly admitted flow: the last one
// release retired, rebuilt in place, or a new one if the free list is empty.
// A bad configuration panics either way, as flows.New has validated what it
// can.
func (m *Manager) conn(cfg mptcp.Config, id uint64, paths []*netem.Path) *mptcp.Conn {
	n := len(m.closed)
	if n == 0 {
		m.built++
		return mptcp.MustNew(m.eng, cfg, id, paths...)
	}
	c := m.closed[n-1]
	m.closed[n-1] = nil
	m.closed = m.closed[:n-1]
	if err := c.Reset(m.eng, cfg, id, paths...); err != nil {
		panic(err)
	}
	return c
}

// slot resolves a handle, or nil if the flow it named is gone.
func (m *Manager) slot(h handle) *flowSlot {
	s := &m.slots[h.idx]
	if s.gen != h.gen {
		return nil
	}
	return s
}

// streamChunk produces one chunk at the current rung and adapts the rung to
// the goodput measured over the previous chunk, like a DASH player's
// throughput-rule ABR with a 0.8 safety margin.
func (m *Manager) streamChunk(h handle) {
	s := m.slot(h)
	if s == nil {
		return
	}
	chunk := m.cfg.Stream.Chunk
	acked := s.conn.AckedBytes()
	if delta := acked - s.lastAcked; s.lastAcked > 0 || delta > 0 {
		measured := float64(delta) * 8 / chunk.Seconds()
		rung := 0
		for i, rate := range m.cfg.Stream.Ladder {
			if 0.8*measured >= float64(rate) {
				rung = i
			}
		}
		s.rung = rung
	}
	s.lastAcked = acked
	rate := m.cfg.Stream.Ladder[s.rung]
	s.conn.Produce(rate * int64(chunk) / int64(sim.Second) / 8)
	m.chunks++
	// Not a sim.Ticker: the flowSlot lives in a slice append may move, so it
	// cannot be queued by address — the handle closure stays.
	s.chunkTimer = m.eng.After(chunk, func() { m.streamChunk(h) })
}

// finish closes out a flow that completed at at: a finite transfer whose
// last segment was acknowledged, or a streaming session at its natural end.
func (m *Manager) finish(h handle, at sim.Time) {
	s := m.slot(h)
	if s == nil {
		return
	}
	m.complete(s, at, "")
	m.release(h.idx)
}

// complete records one flow that completed at at, or with shed ShedHorizon
// was cut alive there: per-class accounting and the streamed report.
func (m *Manager) complete(s *flowSlot, at sim.Time, shed string) {
	fct := at - s.start
	bytes := s.conn.AckedBytes()
	goodput := 0.0
	if fct > 0 {
		goodput = float64(bytes) * 8 / fct.Seconds()
	}
	if shed == "" {
		m.stats.Completed++
		m.stats.CompletedByClass[s.class]++
	} else {
		m.stats.Cut++
		m.stats.CutByClass[s.class]++
	}
	m.stats.AckedBytes += bytes
	m.report(Report{
		ID: s.id, Class: s.class, At: at, Bytes: bytes, FCT: fct,
		GoodputBps: goodput, Joules: m.flowJoules(s, goodput, fct),
		Subflows: s.subflows, Shed: shed,
	})
}

// flowModel prices per-flow energy: the i7 CPU model.
var flowModel energy.Model = energy.NewI7()

// flowJoules prices a flow's attributable energy: the model at the flow's
// mean operating point minus the idle floor, over its lifetime. Per-flow
// meters would add one sampling event stream per live flow — a population
// of tens of thousands makes that the dominant event source — so the
// manager integrates analytically instead.
func (m *Manager) flowJoules(s *flowSlot, goodputBps float64, alive sim.Time) float64 {
	op := energy.Sample{
		ThroughputBps:  goodputBps,
		Subflows:       s.subflows,
		MeanRTTSeconds: s.conn.MeanSRTTSeconds(),
	}
	marginal := flowModel.Power(op) - flowModel.Power(energy.Sample{})
	if marginal < 0 {
		marginal = 0
	}
	return marginal * alive.Seconds()
}

// report streams one outcome to the Emit hook, if any.
func (m *Manager) report(rep Report) {
	if m.cfg.Emit != nil {
		m.cfg.Emit(rep)
	}
}

func (m *Manager) maybeDrained() {
	if m.drained || m.offering || m.live != 0 {
		return
	}
	m.drained = true
	if m.OnDrained != nil {
		m.OnDrained()
	}
}

// CutLive reports and releases every flow still alive — the end-of-run
// sweep that upholds the zero-silent-loss contract: a flow the horizon cut
// is accounted (Stats.Cut, Shed="horizon") with the bytes it delivered,
// never dropped from the books. After CutLive, Offered == Completed +
// ShedCapacity + Cut.
func (m *Manager) CutLive() {
	now := m.eng.Now()
	for idx := range m.slots {
		s := &m.slots[idx]
		if s.conn == nil {
			continue
		}
		m.complete(s, now, ShedHorizon)
		m.release(int32(idx))
	}
}
