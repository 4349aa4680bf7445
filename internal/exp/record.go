package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mptcpsim/internal/check"
	"mptcpsim/internal/energy"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
)

// expObs is the per-run observation hook: an obsv.Recorder streaming to one
// JSONL file under Config.OutDir (plus the retained rows its CSV twin is
// written from at Close), and/or an invariant checker when Config.Check is
// set. A nil *expObs is valid and inert, so run closures register
// observables unconditionally and observation only happens when requested.
type expObs struct {
	rec  *obsv.Recorder
	sink *obsv.Sink
	base string // path without extension
	done bool   // Close got past the final invariant check; Abort is a no-op

	inv *check.Invariants
}

// observe opens the observation hook for one (experiment, scenario,
// algorithm, seed) run, or returns nil when the config neither exports
// records nor checks invariants. The returned observer is not yet sampling:
// defer Abort, register observables (Conn, Meter, Sample), then call Start
// before running the engine and Close after. Failures panic — record export
// is explicitly requested, and a partial record set silently missing runs
// would be worse than stopping; invariant violations likewise panic
// (FailFast) so the worker pool surfaces them with the failing run's
// identity.
func (c Config) observe(eng *sim.Engine, expID, scenario, alg string, seed int64) *expObs {
	if c.OutDir == "" && !c.Check {
		return nil
	}
	o := &expObs{}
	if c.Check {
		o.inv = check.New(eng)
		o.inv.FailFast = true
	}
	if c.OutDir == "" {
		return o
	}
	if err := os.MkdirAll(c.OutDir, 0o755); err != nil {
		panic(fmt.Errorf("exp: creating record dir: %w", err))
	}
	o.base = filepath.Join(c.OutDir, fmt.Sprintf("%s_%s_%s_seed%d", slug(expID), slug(alg), slug(scenario), seed))
	sink, err := obsv.CreateSink(o.base + ".jsonl")
	if err != nil {
		panic(fmt.Errorf("exp: creating record: %w", err))
	}
	o.sink = sink
	o.rec = obsv.NewRecorder(eng, obsv.Meta{
		Experiment: expID,
		Scenario:   scenario,
		Algorithm:  alg,
		Seed:       seed,
		Scale:      c.Scale,
	}, obsv.Options{Interval: c.SampleInterval, Stream: sink, Retain: true})
	return o
}

// Conn registers the standard per-connection and per-subflow series, and —
// when invariant checking is on — the connection, its subflows and their
// paths' links with the checker.
func (o *expObs) Conn(prefix string, conn *mptcp.Conn) {
	if o == nil {
		return
	}
	if o.rec != nil {
		o.rec.WatchConn(prefix, conn)
	}
	if o.inv != nil {
		o.inv.Watch(prefix, conn)
	}
}

// Meter registers a host energy meter's power and energy series.
func (o *expObs) Meter(prefix string, m *energy.Meter) {
	if o == nil {
		return
	}
	if o.rec != nil {
		o.rec.WatchMeter(prefix, m)
	}
	if o.inv != nil {
		o.inv.WatchMeter(prefix, m)
	}
}

// Sample registers one extra named series.
func (o *expObs) Sample(name string, fn func() float64) {
	if o == nil || o.rec == nil {
		return
	}
	o.rec.AddSampler(name, fn)
}

// Flow streams one per-flow outcome line to the run record (bounded: the
// recorder never retains flow lines).
func (o *expObs) Flow(f obsv.Flow) {
	if o == nil || o.rec == nil {
		return
	}
	o.rec.EmitFlow(f)
}

// Inv exposes the run's invariant checker (nil when checking is off), for
// subsystems like the flow manager that watch and unwatch a churning
// population themselves.
func (o *expObs) Inv() *check.Invariants {
	if o == nil {
		return nil
	}
	return o.inv
}

// Summary records a scalar outcome for the record's summary line.
func (o *expObs) Summary(name string, v float64) {
	if o == nil || o.rec == nil {
		return
	}
	o.rec.SetSummary(name, v)
}

// Start freezes the series set and begins sampling and checking.
func (o *expObs) Start() {
	if o == nil {
		return
	}
	if o.rec != nil {
		o.rec.Start()
	}
	if o.inv != nil {
		o.inv.Start()
	}
}

// Close evaluates the invariants one final time, completes the JSONL
// record, writes the CSV twin and releases the file.
func (o *expObs) Close() {
	if o == nil {
		return
	}
	if o.inv != nil {
		o.inv.Final()
	}
	if o.rec == nil {
		return
	}
	o.done = true
	err := o.rec.Close()
	if cerr := o.sink.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		panic(fmt.Errorf("exp: writing record %s.jsonl: %w", o.base, err))
	}
	if err := o.writeCSV(); err != nil {
		panic(fmt.Errorf("exp: writing record %s.csv: %w", o.base, err))
	}
}

// Abort is deferred by every run closure right after observe. After Close
// it does nothing; when the run panicked instead — an invariant violation
// under FailFast, an event budget, a watchdog trip — it saves what was
// recorded: the JSONL is flushed through the last completed tick (no
// summary line) and released, and the CSV twin is written from the rows
// retained so far. Errors are dropped: the run is already failing with a
// better one.
func (o *expObs) Abort() {
	if o == nil || o.rec == nil || o.done {
		return
	}
	_ = o.sink.Close()
	_ = o.writeCSV()
}

// writeCSV writes the CSV twin from the recorder's retained rows.
func (o *expObs) writeCSV() error {
	cf, err := os.Create(o.base + ".csv")
	if err != nil {
		return err
	}
	err = obsv.WriteCSV(cf, o.rec.Series(), o.rec.Rows())
	if cerr := cf.Close(); err == nil {
		err = cerr
	}
	return err
}

// slug normalizes a record filename component: lower case, with anything
// outside [a-z0-9._-] collapsed to '-'.
func slug(s string) string {
	s = strings.ToLower(s)
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			return r
		default:
			return '-'
		}
	}, s)
}
