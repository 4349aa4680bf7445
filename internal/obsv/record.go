// Package obsv is the structured observability layer: it turns one
// simulation run into a machine-readable run record that downstream tooling
// (plotting, regression diffing, trajectory analysis) can consume, instead
// of the ASCII tables the experiment harness renders for humans.
//
// A Recorder attaches engine-driven samplers to a run — per-subflow cwnd,
// SRTT, inflight and loss counters, the congestion-control algorithm's
// introspected internals (ψ_r/ε_r for DTS), per-connection goodput and
// re-injections, per-host watts from the energy meter — plus the failover
// transitions each subflow records, and serializes the whole thing as JSONL
// (one sample per line, streamed, bounded memory) and CSV.
//
// The record format is line-oriented JSON with a `type` discriminator:
//
//	{"type":"meta", ...}     exactly once, first line: run identity
//	{"type":"sample", ...}   one per sampling tick: t_s plus a value map
//	{"type":"event", ...}    labelled instants (failover transitions)
//	{"type":"flow", ...}     one per finished flow: FCT/goodput/energy outcome
//	{"type":"summary", ...}  exactly once, last line: scalar outcomes
//
// Records are deterministic: value maps serialize with sorted keys, sample
// cadence is driven by the simulation clock, and nothing wall-clock-derived
// is ever written, so the same seeded run produces byte-identical records
// regardless of how many runs execute concurrently around it.
package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"mptcpsim/internal/sim"
)

// SchemaVersion identifies the record layout. Bump it when line shapes or
// field meanings change; the golden-record CI check pins the current value.
// v2 added the per-flow "flow" line for population-scale churn runs.
const SchemaVersion = 2

// Meta identifies one run. It is written as the record's first line.
type Meta struct {
	// Experiment is the figure or tool that produced the run (e.g. "fig9",
	// "mptcp-sim").
	Experiment string `json:"experiment"`
	// Scenario names the topology/variant within the experiment
	// (e.g. "twopath", "wired-600mbps").
	Scenario string `json:"scenario"`
	// Algorithm is the congestion-control algorithm under test.
	Algorithm string `json:"algorithm"`
	// Seed is the engine seed that reproduces the run.
	Seed int64 `json:"seed"`
	// Scale is the experiment scale knob (0 when not applicable).
	Scale float64 `json:"scale,omitempty"`
	// Config carries any further scenario knobs worth reproducing.
	Config map[string]string `json:"config,omitempty"`
}

// metaLine is the serialized form of Meta plus schema bookkeeping.
type metaLine struct {
	Type   string `json:"type"`
	Schema int    `json:"schema"`
	Meta
	SampleIntervalS float64  `json:"sample_interval_s"`
	Series          []string `json:"series"`
}

// sampleLine is one sampling tick: every registered series evaluated at t.
type sampleLine struct {
	Type string             `json:"type"`
	T    float64            `json:"t_s"`
	V    map[string]float64 `json:"v"`
}

// eventLine is one labelled instant (e.g. a subflow failover transition).
type eventLine struct {
	Type  string  `json:"type"`
	T     float64 `json:"t_s"`
	Label string  `json:"label"`
}

// Flow is one flow's lifecycle outcome in a population run: streamed as a
// bounded per-flow summary line the instant the outcome is decided, never
// retained by the Recorder (a 50k-flow run must not hold 50k rows).
type Flow struct {
	// T is the instant the outcome was decided, in seconds.
	T float64 `json:"t_s"`
	// ID is the flow's identifier within the run.
	ID uint64 `json:"id"`
	// Class is the workload class ("web", "bulk", "stream").
	Class string `json:"class"`
	// Bytes delivered (or requested, for flows shed at admission).
	Bytes uint64 `json:"bytes"`
	// FCTSeconds is the flow completion time (time alive, for cut flows).
	FCTSeconds float64 `json:"fct_s"`
	// GoodputBps is the delivered goodput over the flow's lifetime.
	GoodputBps float64 `json:"goodput_bps"`
	// Joules is the flow's attributable energy.
	Joules float64 `json:"joules"`
	// Subflows the flow ran with (0 for shed flows).
	Subflows int `json:"subflows"`
	// Shed is empty for completed flows, "capacity" for admission drops,
	// "horizon" for flows cut alive at the end of the run.
	Shed string `json:"shed,omitempty"`
}

// flowLine is the serialized form of Flow with its type discriminator.
type flowLine struct {
	Type string `json:"type"`
	Flow
}

// summaryLine closes the record with scalar outcomes.
type summaryLine struct {
	Type string             `json:"type"`
	V    map[string]float64 `json:"v"`
}

// sanitize maps NaN and ±Inf to 0: they cannot appear in JSON and a sampler
// hitting a 0/0 transient must not abort the whole record.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// integral reports f as an int64 when strconv.AppendInt renders it to the
// same bytes as the float formats below: f is a whole number, |f| < lim and
// f is not −0 (which the float formats print as "-0").
func integral(f, lim float64) (int64, bool) {
	if !(f > -lim && f < lim) {
		return 0, false
	}
	i := int64(f)
	return i, float64(i) == f && (i != 0 || !math.Signbit(f))
}

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest round-trip form, 'f' format unless the magnitude calls for
// scientific notation (< 1e-6 or >= 1e21), with Go's two-digit negative
// exponents shortened ("e-09" → "e-9"). Keeping these bytes identical to
// json.Marshal is what lets the hot-path sample encoder replace it without
// perturbing golden records. Whole numbers below 2⁵³ — counters, states,
// most series — print as their digits either way and skip the
// shortest-float search. f must be finite (sanitize first).
func appendJSONFloat(b []byte, f float64) []byte {
	if i, ok := integral(f, 1<<53); ok {
		return strconv.AppendInt(b, i, 10)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendCSVFloat appends f as fmt's %v prints a float64: strconv's 'g'
// format at shortest precision, which switches to an exponent from 1e6 up —
// so only whole numbers below that take the integer path.
func appendCSVFloat(b []byte, f float64) []byte {
	if i, ok := integral(f, 1e6); ok {
		return strconv.AppendInt(b, i, 10)
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// appendSampleLine appends one sample tick in the schema-v1 line format,
// byte-identical to json.Marshal(sampleLine{...}) plus the trailing newline:
// field order type,t_s,v and the value map with lexicographically sorted
// keys. keys holds the pre-encoded (quoted, escaped, colon-terminated) key
// bytes in sorted order; order maps each key to its series index in vals.
func appendSampleLine(buf []byte, t float64, keys [][]byte, order []int, vals []float64) []byte {
	buf = append(buf, `{"type":"sample","t_s":`...)
	buf = appendJSONFloat(buf, t)
	buf = append(buf, `,"v":{`...)
	for j, idx := range order {
		if j > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, keys[j]...)
		buf = appendJSONFloat(buf, vals[idx])
	}
	return append(buf, '}', '}', '\n')
}

// writeLine marshals v and appends it with a trailing newline.
func writeLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("obsv: marshal record line: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Row is one retained sample: the instant plus the value of every series,
// in series registration order.
type Row struct {
	T sim.Time
	V []float64
}

// csvChunk is how much WriteCSV renders before it hands the bytes on.
const csvChunk = 32 << 10

// WriteCSV renders retained rows as CSV: a t_s column followed by one
// column per series, one row per sampling tick. Values print in Go's
// shortest-round-trip float format (what %v prints), so the output is
// deterministic. Rows are rendered into one buffer and written in chunks of
// at least csvChunk bytes, each ending on a row boundary, so w may be a
// bare file.
func WriteCSV(w io.Writer, series []string, rows []Row) error {
	buf := make([]byte, 0, csvChunk+csvChunk/8)
	buf = append(buf, "t_s"...)
	for _, name := range series {
		buf = append(buf, ',')
		buf = append(buf, name...)
	}
	buf = append(buf, '\n')
	for _, row := range rows {
		if len(buf) >= csvChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = appendCSVFloat(buf, row.T.Seconds())
		for _, v := range row.V {
			buf = append(buf, ',')
			buf = appendCSVFloat(buf, v)
		}
		buf = append(buf, '\n')
	}
	_, err := w.Write(buf)
	return err
}
