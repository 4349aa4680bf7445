package obsv

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
	"mptcpsim/internal/topo"
)

// recordLines parses a JSONL record into generic maps, one per line.
func recordLines(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	for i, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d: %v (%q)", i, err, line)
		}
		out = append(out, m)
	}
	return out
}

// runSynthetic drives a recorder with synthetic samplers over a 1 s horizon
// at a 100 ms interval and returns the streamed record plus the recorder.
func runSynthetic(t *testing.T, opt Options) (*Recorder, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if opt.Stream == nil {
		opt.Stream = &buf
	}
	eng := sim.NewEngine(7)
	rec := NewRecorder(eng, Meta{
		Experiment: "test", Scenario: "synthetic", Algorithm: "none", Seed: 7,
	}, opt)

	ticks := 0.0
	rec.AddSampler("count", func() float64 { ticks++; return ticks })
	rec.AddSampler("clock_s", func() float64 { return eng.Now().Seconds() })
	rec.AddSampler("bad", func() float64 { return math.NaN() })

	tl := &tcp.Timeline{}
	tl.Add(250*sim.Millisecond, "blip")
	tl.Add(750*sim.Millisecond, "recover")
	rec.AddTimeline("p0.", tl)

	rec.SetSummary("total", 42)
	rec.SetSummary("broken", math.Inf(1)) // sanitized to 0

	rec.Start()
	eng.Run(1 * sim.Second)
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return rec, buf.Bytes()
}

func TestRecorderRecordShape(t *testing.T) {
	var csv bytes.Buffer
	_, data := runSynthetic(t, Options{CSV: &csv})
	lines := recordLines(t, data)

	// meta first, then 10 samples (100ms..1s inclusive), 2 events, summary.
	if want := 1 + 10 + 2 + 1; len(lines) != want {
		t.Fatalf("got %d lines, want %d", len(lines), want)
	}

	meta := lines[0]
	if meta["type"] != "meta" {
		t.Fatalf("first line type = %v, want meta", meta["type"])
	}
	if meta["schema"] != float64(SchemaVersion) {
		t.Errorf("schema = %v, want %d", meta["schema"], SchemaVersion)
	}
	if meta["sample_interval_s"] != 0.1 {
		t.Errorf("sample_interval_s = %v, want 0.1", meta["sample_interval_s"])
	}
	series, _ := meta["series"].([]any)
	if len(series) != 3 || series[0] != "count" || series[1] != "clock_s" || series[2] != "bad" {
		t.Errorf("series = %v, want [count clock_s bad] in registration order", series)
	}

	for i := 1; i <= 10; i++ {
		s := lines[i]
		if s["type"] != "sample" {
			t.Fatalf("line %d type = %v, want sample", i, s["type"])
		}
		wantT := float64(i) * 0.1
		if got := s["t_s"].(float64); math.Abs(got-wantT) > 1e-9 {
			t.Errorf("sample %d t_s = %v, want %v", i, got, wantT)
		}
		v := s["v"].(map[string]any)
		if v["count"] != float64(i) {
			t.Errorf("sample %d count = %v, want %d", i, v["count"], i)
		}
		if v["bad"] != 0.0 {
			t.Errorf("sample %d bad = %v, want 0 (NaN sanitized)", i, v["bad"])
		}
	}

	if lines[11]["type"] != "event" || lines[11]["label"] != "p0.blip" || lines[11]["t_s"] != 0.25 {
		t.Errorf("event 1 = %v, want p0.blip at 0.25", lines[11])
	}
	if lines[12]["type"] != "event" || lines[12]["label"] != "p0.recover" {
		t.Errorf("event 2 = %v, want p0.recover", lines[12])
	}

	sum := lines[13]
	if sum["type"] != "summary" {
		t.Fatalf("last line type = %v, want summary", sum["type"])
	}
	v := sum["v"].(map[string]any)
	if v["total"] != 42.0 || v["broken"] != 0.0 {
		t.Errorf("summary v = %v, want total=42 broken=0", v)
	}

	// The CSV twin mirrors the streamed samples, NaN sanitized the same way.
	rows := strings.Split(strings.TrimSuffix(csv.String(), "\n"), "\n")
	if len(rows) != 11 || rows[0] != "t_s,count,clock_s,bad" {
		t.Fatalf("CSV twin has %d lines headed %q, want 11 headed t_s,count,clock_s,bad", len(rows), rows[0])
	}
	if rows[5] != "0.5,5,0.5,0" {
		t.Errorf("CSV row 5 = %q, want 0.5,5,0.5,0", rows[5])
	}
}

// TestEmitFlowRoundTrip streams flow lines mid-run and round-trips the
// record through ParseRecord: every outcome comes back verbatim, in order,
// and the recorder retains nothing for them.
func TestEmitFlowRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	eng := sim.NewEngine(3)
	rec := NewRecorder(eng, Meta{Experiment: "churn", Scenario: "fattree", Algorithm: "lia", Seed: 3}, Options{Stream: &buf})

	flows := []Flow{
		{T: 0.25, ID: 1, Class: "web", Bytes: 65536, FCTSeconds: 0.2, GoodputBps: 2.6e6, Joules: 0.05, Subflows: 2},
		{T: 0.30, ID: 2, Class: "bulk", Bytes: 1 << 20, Shed: "capacity"},
		{T: 0.95, ID: 3, Class: "stream", Bytes: 4096, FCTSeconds: 0.7, GoodputBps: 46811, Joules: math.NaN(), Subflows: 2, Shed: "horizon"},
	}
	// Before Start: dropped, not buffered.
	rec.EmitFlow(Flow{ID: 99})
	rec.Start()
	for _, f := range flows {
		f := f
		eng.At(sim.Time(f.T*float64(sim.Second)), func() { rec.EmitFlow(f) })
	}
	eng.Run(1 * sim.Second)
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// After Close: dropped.
	rec.EmitFlow(Flow{ID: 100})

	parsed, err := ParseRecord(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParseRecord: %v\n%s", err, buf.Bytes())
	}
	if parsed.Schema != SchemaVersion {
		t.Errorf("schema %d, want %d", parsed.Schema, SchemaVersion)
	}
	if len(parsed.Flows) != len(flows) {
		t.Fatalf("got %d flows, want %d: %+v", len(parsed.Flows), len(flows), parsed.Flows)
	}
	for i, want := range flows {
		got := parsed.Flows[i]
		if want.Joules != want.Joules { // the NaN joules sanitizes to 0
			want.Joules = 0
		}
		if got != want {
			t.Errorf("flow %d round-trip: got %+v, want %+v", i, got, want)
		}
	}
	// Grammar: a flow line after the summary is rejected.
	bad := buf.String() + `{"type":"flow","t_s":2,"id":9,"class":"web","bytes":1,"fct_s":1,"goodput_bps":8,"joules":0,"subflows":1}` + "\n"
	if _, err := ParseRecord(strings.NewReader(bad)); err == nil {
		t.Error("flow line after summary parsed without error")
	}
}

func TestRecorderDeterministic(t *testing.T) {
	_, a := runSynthetic(t, Options{})
	_, b := runSynthetic(t, Options{})
	if !bytes.Equal(a, b) {
		t.Error("two identical runs produced different records")
	}
}

// TestRecorderNoRetain: the recorder keeps nothing per tick. Once its
// buffers are warm a tick that streams the JSONL line and the CSV row,
// each through its own Sink, allocates nothing.
func TestRecorderNoRetain(t *testing.T) {
	eng := sim.NewEngine(1)
	jsonl := &Sink{w: &countingWriter{}, buf: make([]byte, 0, sinkBuffer)}
	csv := &Sink{w: &countingWriter{}, buf: make([]byte, 0, sinkBuffer)}
	rec := NewRecorder(eng, Meta{Experiment: "alloc"}, Options{Stream: jsonl, CSV: csv})
	var n float64
	rec.AddSampler("count", func() float64 { n++; return n })
	rec.AddSampler("fraction", func() float64 { return n / 7 })
	rec.AddSampler("big", func() float64 { return 1e6 + n/3 })
	rec.AddSampler("bad", func() float64 { return math.NaN() })
	rec.Start()
	next := eng.Now()
	for i := 0; i < 10; i++ {
		next += rec.Interval()
		eng.Run(next)
	}
	// Enough ticks to flush both sinks several times.
	avg := testing.AllocsPerRun(3000, func() {
		next += rec.Interval()
		eng.Run(next)
	})
	if avg != 0 {
		t.Errorf("a tick streaming JSONL and CSV allocates %.2f times, want 0", avg)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderAddSamplerAfterStartPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	rec := NewRecorder(eng, Meta{}, Options{})
	rec.Start()
	defer func() {
		if recover() == nil {
			t.Error("AddSampler after Start did not panic")
		}
	}()
	rec.AddSampler("late", func() float64 { return 0 })
}

// TestRecorderAddSamplerRejectsCSVBreakingNames: the CSV header is written
// unescaped, so a name that would shift its columns is refused up front.
func TestRecorderAddSamplerRejectsCSVBreakingNames(t *testing.T) {
	for _, name := range []string{"a,b", `q"uote`, "line\nbreak", "cr\rname"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddSampler(%q) did not panic", name)
				}
			}()
			NewRecorder(sim.NewEngine(1), Meta{}, Options{}).AddSampler(name, func() float64 { return 0 })
		}()
	}
	NewRecorder(sim.NewEngine(1), Meta{}, Options{}).AddSampler("sub0.cwnd_µs [x]", func() float64 { return 0 })
}

// TestWriteCSV: the CSV twin a Recorder streams is a t_s column and one
// column per series, a row per tick, in %v's float format.
func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	eng := sim.NewEngine(1)
	rec := NewRecorder(eng, Meta{}, Options{CSV: &buf})
	x, y := []float64{1, 3}, []float64{2.5, 0}
	tick := -1
	rec.AddSampler("x", func() float64 { tick++; return x[tick] })
	rec.AddSampler("y", func() float64 { return y[tick] })
	rec.Start()
	eng.Run(2 * rec.Interval())
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	want := "t_s,x,y\n0.1,1,2.5\n0.2,3,0\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

// TestWatchConn pins the standard series set WatchConn registers, including
// the introspected algorithm internals, against a real two-path connection.
func TestWatchConn(t *testing.T) {
	var buf bytes.Buffer
	eng := sim.NewEngine(3)
	tp := topo.NewNPath(eng, topo.NPathSpec{}, topo.NPathSpec{})
	conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: "dts"}, 1, tp.Paths()...)

	rec := NewRecorder(eng, Meta{Experiment: "test", Scenario: "twopath", Algorithm: "dts", Seed: 3},
		Options{Stream: &buf})
	rec.WatchConn("", conn)

	wantSeries := []string{
		"conn.goodput_mbps", "conn.acked_mb", "conn.reinjected_segs",
		"sub0.cwnd", "sub0.srtt_ms", "sub0.inflight", "sub0.acked_segs",
		"sub0.loss_events", "sub0.timeouts", "sub0.state",
		"sub0.eps", "sub0.psi", "sub0.rtt_ratio",
		"sub1.cwnd", "sub1.srtt_ms", "sub1.inflight", "sub1.acked_segs",
		"sub1.loss_events", "sub1.timeouts", "sub1.state",
		"sub1.eps", "sub1.psi", "sub1.rtt_ratio",
	}
	got := rec.names
	if len(got) != len(wantSeries) {
		t.Fatalf("series = %v, want %v", got, wantSeries)
	}
	for i := range got {
		if got[i] != wantSeries[i] {
			t.Fatalf("series[%d] = %q, want %q", i, got[i], wantSeries[i])
		}
	}

	rec.Start()
	conn.Start()
	eng.Run(2 * sim.Second)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	lines := recordLines(t, buf.Bytes())
	var samples int
	for _, l := range lines[1:] {
		if l["type"] != "sample" {
			continue
		}
		samples++
		v := l["v"].(map[string]any)
		if len(v) != len(wantSeries) {
			t.Fatalf("sample has %d values, want %d", len(v), len(wantSeries))
		}
		if v["sub0.cwnd"].(float64) <= 0 {
			t.Errorf("sub0.cwnd = %v, want > 0", v["sub0.cwnd"])
		}
	}
	if samples != 20 {
		t.Errorf("got %d samples over 2s at 100ms, want 20", samples)
	}
}
