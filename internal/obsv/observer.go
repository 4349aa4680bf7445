package obsv

import (
	"fmt"
	"path/filepath"
	"strings"

	"mptcpsim/internal/check"
	"mptcpsim/internal/energy"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/sim"
)

// CheckMode selects how an Observer's invariant checker reports.
type CheckMode int

const (
	// CheckOff runs no invariant checker.
	CheckOff CheckMode = iota
	// CheckCollect gathers violations; Close returns them as the run's
	// error, so a batch reports a bad seed beside the surviving rows.
	CheckCollect
	// CheckFailFast panics at the first violation, inside the engine loop,
	// so a worker pool surfaces it with the failing run's identity.
	CheckFailFast
)

// Config says what one run's Observer does.
type Config struct {
	Meta Meta
	// Path is the JSONL run record to stream ("" = no record); with CSV
	// set, the twin of the same rows streams beside it.
	Path string
	CSV  bool
	// Interval is the record sampling period (0 takes DefaultInterval).
	Interval sim.Time
	Check    CheckMode
}

// Observer is the per-run observation hook every front-end attaches: a
// Recorder streaming to one JSONL file (and its CSV twin) and/or an
// invariant checker. A nil *Observer is valid and inert, so runs register
// observables unconditionally and observation only happens when requested.
type Observer struct {
	rec   *Recorder
	sinks []*Sink // the JSONL record, then its CSV twin when asked for
	path  string
	done  bool // Close got past the final invariant check; Abort is a no-op

	inv *check.Invariants
}

// NewObserver opens the observation hook for one run, or returns nil when c
// asks for neither a record nor checking. The observer is not yet sampling:
// defer Abort, register observables (Conn, Meter, Sample), then call Start
// before running the engine and Close after.
func NewObserver(eng *sim.Engine, c Config) (*Observer, error) {
	if c.Path == "" && c.Check == CheckOff {
		return nil, nil
	}
	o := &Observer{path: c.Path}
	if c.Check != CheckOff {
		o.inv = check.New(eng)
		o.inv.FailFast = c.Check == CheckFailFast
	}
	if c.Path == "" {
		return o, nil
	}
	paths := []string{c.Path}
	if c.CSV {
		paths = append(paths, strings.TrimSuffix(c.Path, filepath.Ext(c.Path))+".csv")
	}
	for _, path := range paths {
		sink, err := CreateSink(path)
		if err != nil {
			o.closeSinks()
			return nil, fmt.Errorf("obsv: creating record: %w", err)
		}
		o.sinks = append(o.sinks, sink)
	}
	opt := Options{Interval: c.Interval, Stream: o.sinks[0]}
	if c.CSV {
		opt.CSV = o.sinks[1]
	}
	o.rec = NewRecorder(eng, c.Meta, opt)
	return o, nil
}

// Conn registers the standard per-connection and per-subflow series, and —
// when invariant checking is on — the connection, its subflows and their
// paths' links with the checker.
func (o *Observer) Conn(prefix string, conn *mptcp.Conn) {
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
func (o *Observer) Meter(prefix string, m *energy.Meter) {
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
func (o *Observer) Sample(name string, fn func() float64) {
	if o == nil || o.rec == nil {
		return
	}
	o.rec.AddSampler(name, fn)
}

// Flow streams one per-flow outcome line to the run record (bounded: the
// recorder never retains flow lines).
func (o *Observer) Flow(f Flow) {
	if o == nil || o.rec == nil {
		return
	}
	o.rec.EmitFlow(f)
}

// Inv exposes the run's invariant checker (nil when checking is off), for
// subsystems like the flow manager that watch and unwatch a churning
// population themselves.
func (o *Observer) Inv() *check.Invariants {
	if o == nil {
		return nil
	}
	return o.inv
}

// Summary records a scalar outcome for the record's summary line.
func (o *Observer) Summary(name string, v float64) {
	if o == nil || o.rec == nil {
		return
	}
	o.rec.SetSummary(name, v)
}

// Start freezes the series set and begins sampling and checking.
func (o *Observer) Start() {
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

// stop cancels the sampling and checking ticks: a closed or aborted observer
// owns no event.
func (o *Observer) stop() {
	if o.rec != nil {
		o.rec.ticker.Stop()
	}
	if o.inv != nil {
		o.inv.Stop()
	}
}

// Close stops sampling and checking and evaluates the invariants one final
// time — returning the collected violations, if any, with the record left to
// Abort — then completes the JSONL record and releases both files.
func (o *Observer) Close() error {
	if o == nil {
		return nil
	}
	o.stop()
	if o.inv != nil {
		o.inv.Final()
		if err := o.inv.Err(); err != nil {
			return err
		}
	}
	if o.rec == nil {
		return nil
	}
	o.done = true
	err := o.rec.Close()
	if cerr := o.closeSinks(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("obsv: writing record %s: %w", o.path, err)
	}
	return nil
}

// Abort is deferred right after NewObserver. After Close completed the
// record it does nothing; when the run panicked or failed instead — a
// failed invariant, an event budget, a watchdog trip — it stops sampling
// and checking and saves what was recorded: the JSONL and its CSV twin are
// flushed through the last completed tick (no summary line) and released.
// Errors are dropped: the run is already failing with a better one.
func (o *Observer) Abort() {
	if o == nil || o.done {
		return
	}
	o.stop()
	_ = o.closeSinks()
}

// closeSinks flushes and releases every file and returns the first error.
func (o *Observer) closeSinks() error {
	var err error
	for _, s := range o.sinks {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
