package obsv

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mptcpsim/internal/sim"
)

// The CSV twin's encoders — appendCSVHeader, and appendCSVRow over a tick's
// JSON cells — and the twin a Recorder streams with them are checked
// differentially against refWriteCSV, the per-cell fmt.Fprintf writer they
// replaced, kept here verbatim: whatever rows the table, the fuzzer or a run
// comes up with, the two must produce the same bytes.

// Row is one sample as the reference writer takes it: the instant plus the
// value of every series, in series registration order.
type Row struct {
	T sim.Time
	V []float64
}

func refWriteCSV(w io.Writer, series []string, rows []Row) error {
	if _, err := io.WriteString(w, "t_s"); err != nil {
		return err
	}
	for _, name := range series {
		if _, err := io.WriteString(w, ","+name); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := fmt.Fprintf(w, "%v", row.T.Seconds()); err != nil {
			return err
		}
		for _, v := range row.V {
			if _, err := fmt.Fprintf(w, ",%v", v); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// edgeValues sit on every boundary the append encoders branch on: the sign
// of zero, the integer fast paths' limits (1e6 for CSV's 'g', 2⁵³ for
// JSON), the exponent thresholds of both formats, and the ends of the
// float64 range.
var edgeValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 0.1, 1.0 / 3.0,
	999999, 1e6, 1e6 + 1, -999999, -1e6, 999999.5, 1234567, 123456.7,
	1 << 53, 1<<53 - 1, 1<<53 + 2, -(1 << 53), -(1<<53 - 1), 1 << 62, 1 << 63, -(1 << 63),
	1e20, 1e21, -1e21, 1e22, 1e-4, 1e-5, 1.234e-05, 1e-6, 9.999999e-7, 1e-7, -1e-7,
	5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
	math.MaxFloat64, -math.MaxFloat64, math.MaxInt64, math.MinInt64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// encodeCSV renders rows with the row encoder, as a Recorder streams them.
func encodeCSV(series []string, rows []Row) []byte {
	b := appendCSVHeader(nil, series)
	var c tickCells
	for _, row := range rows {
		vals := append([]float64{row.T.Seconds()}, row.V...)
		c.encode(vals)
		b = appendCSVRow(b, vals, &c)
	}
	return b
}

// checkCSVAgainstReference fails on the first byte where got differs from
// what the reference writer makes of rows.
func checkCSVAgainstReference(t *testing.T, got []byte, series []string, rows []Row) {
	t.Helper()
	var want bytes.Buffer
	if err := refWriteCSV(&want, series, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("the CSV differs from the per-cell reference:\n got %q\nwant %q", got, want.Bytes())
	}
}

// recordCSV streams a Recorder's CSV twin through a Sink to a file under dir,
// every series sampling vals(tick) — a panic from vals aborts the run as a
// failing one would — and returns the file plus the rows sampled.
func recordCSV(t *testing.T, dir string, series []string, vals func(tick int) []float64) ([]byte, []Row) {
	t.Helper()
	path := filepath.Join(dir, "run.csv")
	var rows []Row
	func() {
		s, err := CreateSink(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		defer func() { _ = recover() }()
		eng := sim.NewEngine(1)
		rec := NewRecorder(eng, Meta{}, Options{CSV: s})
		tick, cur := 0, []float64(nil)
		for i, name := range series {
			rec.AddSampler(name, func() float64 {
				if i == 0 {
					tick++
					cur = vals(tick)
					v := make([]float64, len(cur))
					for j := range cur {
						v[j] = sanitize(cur[j])
					}
					rows = append(rows, Row{T: eng.Now(), V: v})
				}
				return cur[i]
			})
		}
		rec.Start()
		eng.Run(sim.Time(1000) * rec.Interval())
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, rows
}

func TestWriteCSVMatchesReference(t *testing.T) {
	checkCSVAgainstReference(t, encodeCSV(nil, nil), nil, nil)
	checkCSVAgainstReference(t, encodeCSV([]string{"a", "b"}, nil), []string{"a", "b"}, nil)
	rows := []Row{{T: sim.Second}, {T: 2 * sim.Second}}
	checkCSVAgainstReference(t, encodeCSV(nil, rows), nil, rows)

	// Every edge value raw (the encoder is handed whatever it is given) and
	// as a Recorder samples it (NaN/Inf sanitized to 0).
	series := make([]string, len(edgeValues))
	sanitized := make([]float64, len(edgeValues))
	for i, v := range edgeValues {
		series[i] = fmt.Sprintf("s%d", i)
		sanitized[i] = sanitize(v)
	}
	rows = nil
	for i := 0; i < 400; i++ {
		v := edgeValues
		if i%2 == 1 {
			v = sanitized
		}
		rows = append(rows, Row{T: sim.Time(i) * 100 * sim.Millisecond, V: v})
	}
	checkCSVAgainstReference(t, encodeCSV(series, rows), series, rows)

	// The twin a Recorder streams through a Sink, over enough ticks to
	// cross several sink buffers: whole, and cut short by a run that fails
	// at tick 700, whose file must hold every tick before it.
	for _, failAt := range []int{0, 700} {
		data, rows := recordCSV(t, t.TempDir(), series, func(tick int) []float64 {
			if tick == failAt {
				panic("invariant violated")
			}
			return edgeValues
		})
		// The failing tick never got its row.
		if failAt == 0 && len(rows) != 1000 || failAt > 0 && len(rows) != failAt-1 {
			t.Fatalf("run failing at tick %d recorded %d ticks", failAt, len(rows))
		}
		checkCSVAgainstReference(t, data, series, rows)
	}
}

func FuzzWriteCSVReference(f *testing.F) {
	for i := 0; i+2 < len(edgeValues); i += 3 {
		f.Add(int64(i)*int64(sim.Millisecond), edgeValues[i], edgeValues[i+1], edgeValues[i+2], uint8(i))
	}
	f.Fuzz(func(t *testing.T, at int64, a, b, c float64, n uint8) {
		// n rows walk away from the fuzzed values in float steps and in
		// whole steps, so integral and fractional cells mix in one file.
		rows := make([]Row, 0, 2*int(n)+2)
		for i := 0; i <= int(n); i++ {
			k := float64(i)
			raw := []float64{a + k, b * (1 + k/8), c - k/4, math.Trunc(a) + k, math.Trunc(b/(k+1)) - 1}
			clean := make([]float64, len(raw))
			for j, v := range raw {
				clean[j] = sanitize(v)
				// The JSON dialect shares the integer fast path; hold it
				// to encoding/json on the same cells.
				want, err := json.Marshal(clean[j])
				if err != nil {
					t.Fatal(err)
				}
				if got := appendJSONFloat(nil, clean[j]); !bytes.Equal(got, want) {
					t.Errorf("appendJSONFloat(%v) = %q, want %q", clean[j], got, want)
				}
			}
			rows = append(rows, Row{T: sim.Time(at) + sim.Time(i), V: raw}, Row{T: sim.Time(at) - sim.Time(i), V: clean})
		}
		series := []string{"a", "b", "c", "d", "e"}
		checkCSVAgainstReference(t, encodeCSV(series, rows), series, rows)
	})
}

// countingWriter counts Write calls and bytes, failing every call from
// failAt on (0 = never).
type countingWriter struct {
	writes, bytes int
	failAt        int
	closed        bool
}

var errSinkFull = errors.New("disk full")

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.failAt > 0 && w.writes >= w.failAt {
		return 0, fmt.Errorf("write %d: %w", w.writes, errSinkFull)
	}
	w.bytes += len(p)
	return len(p), nil
}

func (w *countingWriter) Close() error { w.closed = true; return nil }

// TestWriteCSVWritesInChunks pins what the sink is for: the CSV twin of N
// bytes, streamed a row per tick, reaches its file in at most N/64 KB + 2
// writes, each ending on a row boundary, not one per row or per cell.
func TestWriteCSVWritesInChunks(t *testing.T) {
	series := make([]string, 23)
	for i := range series {
		series[i] = fmt.Sprintf("sub%d.series", i)
	}
	run := func(w io.WriteCloser) (recErr, sinkErr error) {
		s := &Sink{w: w, buf: make([]byte, 0, sinkBuffer)}
		eng := sim.NewEngine(1)
		rec := NewRecorder(eng, Meta{}, Options{CSV: s})
		var tick float64
		for j, name := range series {
			rec.AddSampler(name, func() float64 {
				if j == 0 {
					tick++
				}
				return tick * float64(j) / 7
			})
		}
		rec.Start()
		eng.Run(4530 * rec.Interval()) // one seed of the faults figure
		return rec.Close(), s.Close()
	}
	var w lineCheckingWriter
	if _, err := run(&w); err != nil {
		t.Fatal(err)
	}
	if max := w.bytes/sinkBuffer + 2; w.writes > max || w.broken != 0 {
		t.Errorf("the CSV took %d writes (%d ending inside a row) for %d bytes, want <= %d whole-row writes", w.writes, w.broken, w.bytes, max)
	}

	// A failing writer stops the stream at the first error.
	f := countingWriter{failAt: 2}
	if recErr, sinkErr := run(&f); !errors.Is(sinkErr, errSinkFull) || (recErr != nil && !errors.Is(recErr, errSinkFull)) {
		t.Errorf("a failing CSV file returned %v and %v, want the write error", recErr, sinkErr)
	}
	if f.writes != 2 {
		t.Errorf("the CSV kept writing after the error: %d writes", f.writes)
	}
}
