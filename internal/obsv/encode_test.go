package obsv

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
)

// TestAppendJSONFloatMatchesMarshal pins the hand-rolled float encoder to
// encoding/json byte-for-byte: the schema guarantee is that replacing
// json.Marshal on the sample hot path changes nothing downstream.
func TestAppendJSONFloatMatchesMarshal(t *testing.T) {
	cases := []float64{
		0, 1, -1, 0.1, -0.1, 2.5, 1e-6, 9.999999e-7, 1e-7, -1e-7,
		1e20, 1e21, -1e21, 1.5e22, 1e-300, 1e300, 5e-324,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		0.30000000000000004, 1.0 / 3.0, 42, 1234.5678, 8e6, 3659547.7111299993,
	}
	// Everything the CSV reference test calls an edge, NaN/Inf sanitized:
	// −0 and the integer fast path's 2⁵³ limit above all.
	for _, v := range edgeValues {
		cases = append(cases, sanitize(v))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		// Sweep magnitudes across the f/e format boundary on both sides.
		v := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
		cases = append(cases, v, math.Trunc(v))
	}
	for _, v := range cases {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		got := appendJSONFloat(nil, v)
		if !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestAppendSampleLineMatchesMarshal pins the full sample line — field
// order, key sorting, key escaping, duplicate-name semantics — against the
// json.Marshal encoding it replaces.
func TestAppendSampleLineMatchesMarshal(t *testing.T) {
	names := []string{
		"sub0.cwnd", "conn.goodput_mbps", "a<b", "x&y", "q\"uote",
		"unié", "tab\tname", "sub0.cwnd", // duplicate: later index wins
	}
	vals := []float64{1.5, 0, 2e-9, 1e22, -3.25, 7, 0.30000000000000004, 99}

	// Reference encoding: the old map-based line.
	v := make(map[string]float64, len(vals))
	for i, n := range names {
		v[n] = vals[i]
	}
	want, err := json.Marshal(sampleLine{Type: "sample", T: 0.30000000000000004, V: v})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')

	// Hot-path encoding via the precomputed key table.
	r := &Recorder{names: names}
	r.buildKeyTable()
	var c tickCells
	c.encode(append([]float64{0.30000000000000004}, vals...))
	got := appendSampleLine(nil, r.keyJSON, r.keyOrder, &c)
	if !bytes.Equal(got, want) {
		t.Errorf("appendSampleLine = %q, want %q", got, want)
	}

	// Empty series set still emits a well-formed empty value map.
	e := &Recorder{}
	e.buildKeyTable()
	wantEmpty, _ := json.Marshal(sampleLine{Type: "sample", T: 0.1, V: map[string]float64{}})
	wantEmpty = append(wantEmpty, '\n')
	c.encode([]float64{0.1})
	if gotEmpty := appendSampleLine(nil, e.keyJSON, e.keyOrder, &c); !bytes.Equal(gotEmpty, wantEmpty) {
		t.Errorf("empty appendSampleLine = %q, want %q", gotEmpty, wantEmpty)
	}
}

// TestBuildKeyTableOrder pins the key table to sorted unique names with
// last-registration-wins indices (the map semantics of the old encoder).
func TestBuildKeyTableOrder(t *testing.T) {
	r := &Recorder{names: []string{"b", "a", "c", "a"}}
	r.buildKeyTable()
	var keys []string
	for _, k := range r.keyJSON {
		keys = append(keys, string(k))
	}
	if !sort.StringsAreSorted(keys) {
		t.Errorf("keyJSON not sorted: %v", keys)
	}
	if len(r.keyOrder) != 3 {
		t.Fatalf("keyOrder has %d entries, want 3 (dedup)", len(r.keyOrder))
	}
	if r.keyOrder[0] != 3 { // "a" registered at 1 then 3: later wins
		t.Errorf("duplicate key resolved to index %d, want 3", r.keyOrder[0])
	}
}

// TestRecorderStreamingSampleAllocs asserts the steady-state sampling tick
// — sampler sweep, line encoding, stream write, introspection — allocates
// nothing once buffers are warm.
func TestRecorderStreamingSampleAllocs(t *testing.T) {
	eng := sim.NewEngine(3)
	tp := topo.NewNPath(eng, topo.NPathSpec{}, topo.NPathSpec{})
	conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: "dtsep"}, 1, tp.Paths()...)

	rec := NewRecorder(eng, Meta{Experiment: "alloc", Algorithm: "dtsep", Seed: 3},
		Options{Stream: io.Discard})
	rec.WatchConn("", conn)
	// The idle connection's series are mostly whole numbers (the integer
	// fast path); these move, and cover the fractional path and both sides
	// of the fast path's limits.
	var n float64
	rec.AddSampler("count", func() float64 { n++; return n })
	rec.AddSampler("fraction", func() float64 { return n / 7 })
	rec.AddSampler("big", func() float64 { return 1<<53 + 2*n })
	rec.AddSampler("negzero", func() float64 { return math.Copysign(0, -1) })
	rec.Start()

	// Warm up: grow the line buffer, the engine's event slab and the
	// introspection row maps. The connection stays idle so the measured
	// window is sampling work only.
	next := eng.Now()
	for i := 0; i < 10; i++ {
		next += rec.Interval()
		eng.Run(next)
	}

	avg := testing.AllocsPerRun(100, func() {
		next += rec.Interval()
		eng.Run(next)
	})
	if avg != 0 {
		t.Errorf("steady-state sampling tick allocates %.1f times, want 0", avg)
	}
}

// BenchmarkSampleLineEncode times one streamed sampling tick end to end
// (23 series, introspected DTS internals included, encoded as a JSONL line
// and a CSV row); allocs/op must be 0.
func BenchmarkSampleLineEncode(b *testing.B) {
	eng := sim.NewEngine(3)
	tp := topo.NewNPath(eng, topo.NPathSpec{}, topo.NPathSpec{})
	conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: "dts"}, 1, tp.Paths()...)
	rec := NewRecorder(eng, Meta{Experiment: "bench", Algorithm: "dts", Seed: 3},
		Options{Stream: io.Discard, CSV: io.Discard})
	rec.WatchConn("", conn)
	rec.Start()
	next := eng.Now()
	for i := 0; i < 10; i++ {
		next += rec.Interval()
		eng.Run(next)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next += rec.Interval()
		eng.Run(next)
	}
}
