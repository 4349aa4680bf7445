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

// tickCells is one sampling tick — the instant, then every series value —
// encoded once in the JSON dialect, cell after cell: the JSONL line copies
// every cell, the CSV row every cell whose %v form is the same bytes.
type tickCells struct {
	b    []byte
	ends []int // cell i is b[ends[i-1]:ends[i]]
}

// encode replaces the cells with vals.
func (c *tickCells) encode(vals []float64) {
	c.b, c.ends = c.b[:0], c.ends[:0]
	for _, v := range vals {
		c.b = appendJSONFloat(c.b, v)
		c.ends = append(c.ends, len(c.b))
	}
}

func (c *tickCells) cell(i int) []byte {
	start := 0
	if i > 0 {
		start = c.ends[i-1]
	}
	return c.b[start:c.ends[i]]
}

// appendSampleLine appends one sample tick in the schema-v1 line format,
// byte-identical to json.Marshal(sampleLine{...}) plus the trailing newline:
// field order type,t_s,v and the value map with lexicographically sorted
// keys. keys holds the pre-encoded (quoted, escaped, colon-terminated) key
// bytes in sorted order; order maps each key to its series index. Cell 0 of
// c is the instant, cell i+1 the value of series i.
func appendSampleLine(buf []byte, keys [][]byte, order []int, c *tickCells) []byte {
	buf = append(buf, `{"type":"sample","t_s":`...)
	buf = append(buf, c.cell(0)...)
	buf = append(buf, `,"v":{`...)
	for j, idx := range order {
		if j > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, keys[j]...)
		buf = append(buf, c.cell(idx+1)...)
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

// appendCSVHeader appends the CSV twin's header line: a t_s column
// followed by one column per series, in registration order.
func appendCSVHeader(b []byte, series []string) []byte {
	b = append(b, "t_s"...)
	for _, name := range series {
		b = append(b, ',')
		b = append(b, name...)
	}
	return append(b, '\n')
}

// appendCSVRow appends one sampling tick as a CSV row: vals is the instant,
// then every value in series registration order, and c the same values in
// the JSON dialect. Zero and every magnitude in [1e-4, 1e6) print the same
// bytes in both dialects — whole numbers as integers, the rest in shortest
// 'f' form — so only the other cells are formatted again.
func appendCSVRow(b []byte, vals []float64, c *tickCells) []byte {
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		if a := math.Abs(v); a == 0 || a >= 1e-4 && a < 1e6 {
			b = append(b, c.cell(i)...)
		} else {
			b = appendCSVFloat(b, v)
		}
	}
	return append(b, '\n')
}
