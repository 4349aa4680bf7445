package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"

	"mptcpsim/internal/core"
	"mptcpsim/internal/energy"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
)

// DefaultInterval is the sampling period when Options.Interval is zero:
// 100 ms of simulated time, ten subflow samples per second — the cadence
// the paper's time-series figures (Fig. 5, Fig. 8) plot at.
const DefaultInterval = 100 * sim.Millisecond

// Options configures a Recorder.
type Options struct {
	// Interval is the sampling period (0 takes DefaultInterval).
	Interval sim.Time
	// Stream, when set, receives the JSONL record as the run progresses:
	// the meta line at Start, one sample line per tick, and the event and
	// summary lines at Close. Streaming keeps memory bounded.
	Stream io.Writer
	// CSV, when set, receives the record's CSV twin as the run progresses:
	// the header at Start and one row per tick, the series in registration
	// order.
	CSV io.Writer
}

// Recorder samples registered observables on a fixed simulated-time cadence
// and assembles the run record. Register samplers before Start; the first
// sample is taken one interval after Start.
type Recorder struct {
	eng  *sim.Engine
	meta Meta
	opt  Options

	names    []string
	samplers []func() float64

	timelines []watchedTimeline
	summary   map[string]float64

	started bool
	closed  bool
	err     error
	ticker  sim.Ticker

	// Hot-path buffers, built once at Start so the steady-state tick
	// allocates nothing: the sampled row (the instant, then every series),
	// its cells, the line buffer both streams encode into, and the sample
	// line's value keys pre-sorted and pre-encoded (quoted, escaped,
	// colon-terminated) with their series indices.
	vals     []float64
	cells    tickCells
	buf      []byte
	keyOrder []int
	keyJSON  [][]byte
}

// watchedTimeline is a Timeline whose events are folded into the record at
// Close, each label prefixed (e.g. "sub1.dead").
type watchedTimeline struct {
	prefix string
	tl     *tcp.Timeline
}

// NewRecorder creates a recorder for one run on eng.
func NewRecorder(eng *sim.Engine, meta Meta, opt Options) *Recorder {
	if opt.Interval <= 0 {
		opt.Interval = DefaultInterval
	}
	r := &Recorder{eng: eng, meta: meta, opt: opt, summary: make(map[string]float64)}
	r.ticker = sim.MakeTicker(eng, opt.Interval, r.tick)
	return r
}

// Interval returns the sampling period.
func (r *Recorder) Interval() sim.Time { return r.opt.Interval }

// Err returns the first stream-write error, if any.
func (r *Recorder) Err() error { return r.err }

// AddSampler registers a named series sampled every tick. It panics after
// Start — the series set is part of the record header — and on a name the
// CSV header cannot carry unescaped (a comma, a quote or a line break would
// shift every column).
func (r *Recorder) AddSampler(name string, fn func() float64) {
	if r.started {
		panic("obsv: AddSampler after Start")
	}
	if strings.ContainsAny(name, ",\"\r\n") {
		panic(fmt.Sprintf("obsv: series name %q needs CSV escaping", name))
	}
	r.names = append(r.names, name)
	r.samplers = append(r.samplers, fn)
}

// AddTimeline registers a timeline whose events are written to the record
// at Close, labels prefixed with prefix.
func (r *Recorder) AddTimeline(prefix string, tl *tcp.Timeline) {
	r.timelines = append(r.timelines, watchedTimeline{prefix: prefix, tl: tl})
}

// SetSummary records one scalar outcome for the closing summary line.
// Calling it again with the same name overwrites.
func (r *Recorder) SetSummary(name string, v float64) {
	r.summary[name] = sanitize(v)
}

// WatchConn registers the standard per-connection and per-subflow series
// for conn, all names prefixed with prefix (use "" for a single-connection
// run): goodput, re-injections, and for each subflow cwnd, SRTT, inflight
// and the cumulative loss/RTO counters. When the connection's algorithm
// implements core.Introspector its internal components (e.g. DTS's ε_r and
// ψ_r) are sampled per subflow as well. Subflow failover transitions are
// folded in as events automatically.
func (r *Recorder) WatchConn(prefix string, conn *mptcp.Conn) {
	var lastBytes uint64
	interval := r.opt.Interval.Seconds()
	r.AddSampler(prefix+"conn.goodput_mbps", func() float64 {
		acked := conn.AckedBytes()
		delta := acked - lastBytes
		lastBytes = acked
		return float64(delta) * 8 / interval / 1e6
	})
	r.AddSampler(prefix+"conn.acked_mb", func() float64 {
		return float64(conn.AckedBytes()) / 1e6
	})
	r.AddSampler(prefix+"conn.reinjected_segs", func() float64 {
		return float64(conn.ReinjectedSegs())
	})

	intr, _ := conn.Alg().(core.Introspector)
	for i, s := range conn.Subflows() {
		i, s := i, s
		sub := fmt.Sprintf("%ssub%d.", prefix, i)
		r.AddSampler(sub+"cwnd", func() float64 { return s.Cwnd() })
		r.AddSampler(sub+"srtt_ms", func() float64 { return s.SRTT().Seconds() * 1e3 })
		r.AddSampler(sub+"inflight", func() float64 { return float64(s.Inflight()) })
		r.AddSampler(sub+"acked_segs", func() float64 { return float64(s.Acked()) })
		r.AddSampler(sub+"loss_events", func() float64 { return float64(s.Stats().LossEvents) })
		r.AddSampler(sub+"timeouts", func() float64 { return float64(s.Stats().Timeouts) })
		r.AddSampler(sub+"state", func() float64 { return float64(s.State()) })
		if intr != nil {
			// The key set is fixed at registration so the record's series
			// list (and the CSV header) is complete up front. All key
			// samplers for this subflow share one component row, refreshed
			// in place on the first access of each tick, so steady-state
			// introspection allocates nothing.
			row := map[string]float64{}
			intr.Introspect(conn.Views(), i, row)
			stamp := sim.Time(-1)
			component := func(key string) float64 {
				if now := r.eng.Now(); now != stamp {
					stamp = now
					intr.Introspect(conn.Views(), i, row)
				}
				return row[key]
			}
			for _, key := range slices.Sorted(maps.Keys(row)) {
				key := key
				r.AddSampler(sub+key, func() float64 { return component(key) })
			}
		}
		r.AddTimeline(sub, s.Transitions())
	}
}

// WatchMeter registers the host's power and energy series for an energy
// meter: the watts of its most recent tick and the joules integrated so far.
func (r *Recorder) WatchMeter(prefix string, m *energy.Meter) {
	r.AddSampler(prefix+".watts", m.LastWatts)
	r.AddSampler(prefix+".joules", m.Joules)
}

// Start writes the meta line and the CSV header and begins sampling. The
// series set is frozen from here on.
func (r *Recorder) Start() {
	if r.started {
		return
	}
	r.started = true
	r.vals = make([]float64, 1+len(r.samplers))
	if r.opt.Stream != nil {
		r.buildKeyTable()
		names := r.names
		if names == nil {
			names = []string{}
		}
		r.emit(metaLine{
			Type:            "meta",
			Schema:          SchemaVersion,
			Meta:            r.meta,
			SampleIntervalS: r.opt.Interval.Seconds(),
			Series:          names,
		})
	}
	if r.opt.CSV != nil {
		r.write(r.opt.CSV, appendCSVHeader(r.buf[:0], r.names))
	}
	r.ticker.Start()
}

// buildKeyTable precomputes the sample line's value-map layout: the series
// names deduplicated (later registrations win, matching the map semantics
// the line schema is defined by), sorted, and JSON-encoded once, so tick
// only appends floats.
func (r *Recorder) buildKeyTable() {
	last := make(map[string]int, len(r.names))
	for i, name := range r.names {
		last[name] = i
	}
	uniq := slices.Sorted(maps.Keys(last))
	r.keyOrder = make([]int, len(uniq))
	r.keyJSON = make([][]byte, len(uniq))
	for j, name := range uniq {
		r.keyOrder[j] = last[name]
		enc, err := json.Marshal(name)
		if err != nil { // unreachable: strings always marshal
			panic("obsv: encode series name: " + err.Error())
		}
		r.keyJSON[j] = append(enc, ':')
	}
}

func (r *Recorder) tick() {
	vals := r.vals
	vals[0] = r.eng.Now().Seconds()
	for i, fn := range r.samplers {
		vals[i+1] = sanitize(fn())
	}
	r.cells.encode(vals)
	if r.opt.Stream != nil {
		r.write(r.opt.Stream, appendSampleLine(r.buf[:0], r.keyJSON, r.keyOrder, &r.cells))
	}
	if r.opt.CSV != nil {
		r.write(r.opt.CSV, appendCSVRow(r.buf[:0], vals, &r.cells))
	}
}

// write hands one encoded line to w and keeps the grown buffer for the
// next. After the first write error on either stream nothing more is
// written.
func (r *Recorder) write(w io.Writer, line []byte) {
	r.buf = line
	if r.err == nil {
		_, r.err = w.Write(line)
	}
}

// EmitFlow streams one flow outcome line. Flow lines are written the moment
// the outcome is decided and are never retained — the whole point of the
// per-flow record is that a 50k-flow churn run costs the recorder zero
// resident rows. Calling EmitFlow before Start, after Close, or without a
// Stream is a no-op.
func (r *Recorder) EmitFlow(f Flow) {
	if !r.started || r.closed || r.opt.Stream == nil {
		return
	}
	f.T = sanitize(f.T)
	f.FCTSeconds = sanitize(f.FCTSeconds)
	f.GoodputBps = sanitize(f.GoodputBps)
	f.Joules = sanitize(f.Joules)
	r.emit(flowLine{Type: "flow", Flow: f})
}

// Close stops sampling and completes the record: watched timeline events
// (merged and time-ordered) followed by the summary line. It returns the
// first stream-write error encountered over the record's lifetime.
func (r *Recorder) Close() error {
	if r.closed {
		return r.err
	}
	r.closed = true
	r.ticker.Stop()
	if r.opt.Stream != nil {
		for _, ev := range r.collectEvents() {
			r.emit(ev)
		}
		v := make(map[string]float64, len(r.summary))
		for k, val := range r.summary {
			v[k] = val
		}
		r.emit(summaryLine{Type: "summary", V: v})
	}
	return r.err
}

// Events returns the watched timelines' events merged into one time-ordered
// list with prefixed labels (registration order breaks ties, keeping the
// merge deterministic).
func (r *Recorder) Events() []tcp.Transition {
	var out []tcp.Transition
	for _, wt := range r.timelines {
		for _, ev := range wt.tl.Events {
			out = append(out, tcp.Transition{T: ev.T, Label: wt.prefix + ev.Label})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

func (r *Recorder) collectEvents() []eventLine {
	events := r.Events()
	lines := make([]eventLine, len(events))
	for i, ev := range events {
		lines[i] = eventLine{Type: "event", T: ev.T.Seconds(), Label: ev.Label}
	}
	return lines
}

func (r *Recorder) emit(line any) {
	if r.err != nil {
		return
	}
	r.err = writeLine(r.opt.Stream, line)
}
