package obsv

import (
	"io"
	"os"
)

// sinkBuffer is how many record bytes a Sink gathers before one write.
const sinkBuffer = 64 << 10

// Sink is the file a run record streams to: a Recorder's Options.Stream
// that gathers lines and hands them to the file in large writes. It never
// splits a Write across two flushes, so as long as its writer passes whole
// lines — the Recorder does — the file always ends on a line boundary.
//
// The owner defers Close right after CreateSink. On the normal path the
// owner has already called Close and checked its error, and the deferred
// call is a no-op; when the run panics or returns early, the deferred call
// is what flushes the lines written so far and releases the descriptor, so
// the file parses (ParseRecord) through the last completed tick and has no
// summary line.
type Sink struct {
	w      io.WriteCloser
	buf    []byte
	err    error // first write or close error; sticky
	closed bool
}

// CreateSink creates (or truncates) the record file at path.
func CreateSink(path string) (*Sink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &Sink{w: f, buf: make([]byte, 0, sinkBuffer)}, nil
}

// Write buffers p, flushing first when p would not fit.
func (s *Sink) Write(p []byte) (int, error) {
	if s.closed {
		return 0, os.ErrClosed
	}
	if len(s.buf)+len(p) > cap(s.buf) {
		s.flush()
	}
	if s.err != nil {
		return 0, s.err
	}
	if len(p) > cap(s.buf) {
		n, err := s.w.Write(p)
		s.err = err
		return n, err
	}
	s.buf = append(s.buf, p...)
	return len(p), nil
}

func (s *Sink) flush() {
	if s.err == nil && len(s.buf) > 0 {
		_, s.err = s.w.Write(s.buf)
	}
	s.buf = s.buf[:0]
}

// Close flushes the buffered lines, closes the file and returns the first
// error the sink met. Further calls return the same error and do nothing.
func (s *Sink) Close() error {
	if s.closed {
		return s.err
	}
	s.closed = true
	s.flush()
	if err := s.w.Close(); s.err == nil {
		s.err = err
	}
	return s.err
}
