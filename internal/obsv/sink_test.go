package obsv

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mptcpsim/internal/sim"
)

// TestSinkWritesWholeLines pins the property the abort path rests on: every
// write the sink issues ends on a line boundary, however the lines fall
// against the buffer, and the writes are few.
func TestSinkWritesWholeLines(t *testing.T) {
	var w lineCheckingWriter
	s := &Sink{w: &w, buf: make([]byte, 0, sinkBuffer)}
	line := append(bytes.Repeat([]byte("x"), 700), '\n')
	huge := append(bytes.Repeat([]byte("y"), sinkBuffer+10), '\n')
	total := 0
	for i := 0; i < 1000; i++ {
		p := line
		if i == 500 {
			p = huge
		}
		if n, err := s.Write(p); err != nil || n != len(p) {
			t.Fatalf("Write %d = (%d, %v)", i, n, err)
		}
		total += len(p)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if w.broken != 0 {
		t.Errorf("%d writes ended inside a line", w.broken)
	}
	if w.bytes != total || !w.closed {
		t.Errorf("sink delivered %d of %d bytes, closed=%v", w.bytes, total, w.closed)
	}
	if max := total/sinkBuffer + 4; w.writes > max {
		t.Errorf("sink issued %d writes for %d bytes, want <= %d", w.writes, total, max)
	}
	if _, err := s.Write(line); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Write after Close = %v, want os.ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

type lineCheckingWriter struct {
	countingWriter
	broken int
}

func (w *lineCheckingWriter) Write(p []byte) (int, error) {
	if len(p) == 0 || p[len(p)-1] != '\n' {
		w.broken++
	}
	return w.countingWriter.Write(p)
}

// TestSinkCloseReportsFirstError runs a recorder into a sink whose file
// fails on the second flush: the buffered Recorder cannot see the error when
// it happens, so the first one must still come back from Close — every time.
func TestSinkCloseReportsFirstError(t *testing.T) {
	w := &countingWriter{failAt: 2}
	s := &Sink{w: w, buf: make([]byte, 0, 256)}
	eng := sim.NewEngine(1)
	rec := NewRecorder(eng, Meta{Experiment: "full"}, Options{Stream: s})
	rec.AddSampler("x", func() float64 { return 1.5 })
	rec.Start()
	eng.Run(10 * sim.Second)
	recErr := rec.Close()
	err := s.Close()
	if !errors.Is(err, errSinkFull) {
		t.Fatalf("Sink.Close = %v, want the write error", err)
	}
	if recErr != nil && !errors.Is(recErr, errSinkFull) {
		t.Errorf("Recorder.Close = %v, want nil or the write error", recErr)
	}
	if again := s.Close(); again != err {
		t.Errorf("second Close = %v, want the same %v", again, err)
	}
	if !w.closed {
		t.Error("a failed sink did not release its file")
	}
	if w.writes != 2 {
		t.Errorf("sink kept writing after the error: %d writes", w.writes)
	}
}

// TestSinkAbortLeavesParseableRecord is the deferred-Close contract on a
// real file: a run that stops without Recorder.Close leaves a record that
// parses through its last tick and has no summary line.
func TestSinkAbortLeavesParseableRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	func() {
		s, err := CreateSink(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		defer func() { _ = recover() }()
		eng := sim.NewEngine(1)
		rec := NewRecorder(eng, Meta{Experiment: "abort"}, Options{Stream: s})
		rec.AddSampler("x", func() float64 { return float64(eng.Now() / sim.Second) })
		rec.SetSummary("never", 1)
		rec.Start()
		eng.At(2550*sim.Millisecond, func() { panic("invariant violated") })
		eng.Run(10 * sim.Second)
	}()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseRecord(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("aborted record does not parse: %v", err)
	}
	if n := len(got.Samples); n != 25 || got.Samples[n-1].T != 2.5 {
		t.Errorf("aborted record has %d samples ending at %v, want 25 ending at 2.5", n, got.Samples[n-1].T)
	}
	if got.Summary != nil {
		t.Errorf("aborted record has a summary line: %v", got.Summary)
	}
}
