package obsv

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"mptcpsim/internal/sim"
)

// WriteCSV is checked differentially against refWriteCSV, the per-cell
// fmt.Fprintf writer it replaced, kept here verbatim: whatever rows the
// table or the fuzzer comes up with, the two must produce the same bytes.

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

// checkCSVAgainstReference renders rows with both writers and fails on the
// first differing byte.
func checkCSVAgainstReference(t *testing.T, series []string, rows []Row) {
	t.Helper()
	var got, want bytes.Buffer
	if err := WriteCSV(&got, series, rows); err != nil {
		t.Fatal(err)
	}
	if err := refWriteCSV(&want, series, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("WriteCSV differs from the per-cell reference:\n got %q\nwant %q", got.Bytes(), want.Bytes())
	}
}

func TestWriteCSVMatchesReference(t *testing.T) {
	checkCSVAgainstReference(t, nil, nil)
	checkCSVAgainstReference(t, []string{"a", "b"}, nil)
	checkCSVAgainstReference(t, nil, []Row{{T: sim.Second}, {T: 2 * sim.Second}})

	// Every edge value raw (WriteCSV is handed whatever rows the caller
	// kept) and as a Recorder retains it (NaN/Inf sanitized to 0), over
	// enough rows to cross several chunk boundaries.
	series := make([]string, len(edgeValues))
	sanitized := make([]float64, len(edgeValues))
	for i, v := range edgeValues {
		series[i] = fmt.Sprintf("s%d", i)
		sanitized[i] = sanitize(v)
	}
	var rows []Row
	for i := 0; i < 400; i++ {
		v := edgeValues
		if i%2 == 1 {
			v = sanitized
		}
		rows = append(rows, Row{T: sim.Time(i) * 100 * sim.Millisecond, V: v})
	}
	checkCSVAgainstReference(t, series, rows)
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
		checkCSVAgainstReference(t, []string{"a", "b", "c", "d", "e"}, rows)
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

// TestWriteCSVWritesInChunks pins what the change is for: a CSV of N bytes
// reaches its writer in at most N/32 KB + 2 calls, not one per cell.
func TestWriteCSVWritesInChunks(t *testing.T) {
	series := make([]string, 23)
	for i := range series {
		series[i] = fmt.Sprintf("sub%d.series", i)
	}
	var rows []Row
	for i := 0; i < 4530; i++ { // one seed of the faults figure
		v := make([]float64, len(series))
		for j := range v {
			v[j] = float64(i*j) / 7
		}
		rows = append(rows, Row{T: sim.Time(i) * 100 * sim.Millisecond, V: v})
	}
	var w countingWriter
	if err := WriteCSV(&w, series, rows); err != nil {
		t.Fatal(err)
	}
	if max := w.bytes/csvChunk + 2; w.writes > max {
		t.Errorf("WriteCSV issued %d writes for %d bytes, want <= %d", w.writes, w.bytes, max)
	}

	// A failing writer stops the rendering at the first error.
	w = countingWriter{failAt: 2}
	if err := WriteCSV(&w, series, rows); !errors.Is(err, errSinkFull) {
		t.Errorf("WriteCSV on a failing writer returned %v, want the write error", err)
	}
	if w.writes != 2 {
		t.Errorf("WriteCSV kept writing after the error: %d writes", w.writes)
	}
}
