package obsv

import (
	"io"
	"os"
	"sync"
)

// sinkBuffer is how many record bytes a Sink gathers before one write.
const sinkBuffer = 64 << 10

// sinkBufs is the free list of sink buffers: CreateSink takes one and Close
// gives it back, so a process that records run after run allocates only as
// many buffers as it ever has sinks open at once. Runs record concurrently,
// hence the lock.
var sinkBufs struct {
	sync.Mutex
	free [][]byte
}

// Sink is the file a run record streams to: a Recorder's Options.Stream or
// Options.CSV that gathers lines and hands them to the file in large
// writes. It never splits a Write across two flushes, so as long as its
// writer passes whole lines — the Recorder does — the file always ends on a
// line boundary.
//
// The owner defers Close right after CreateSink. On the normal path the
// owner has already called Close and checked its error, and the deferred
// call is a no-op; when the run panics or returns early, the deferred call
// is what flushes the lines written so far and releases the descriptor, so
// the file parses (ParseRecord) through the last completed tick and has no
// summary line. A process killed outright loses at most the one buffer of
// lines not yet written, and the file still ends on a line boundary.
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
	var buf []byte
	sinkBufs.Lock()
	if n := len(sinkBufs.free); n > 0 {
		buf, sinkBufs.free = sinkBufs.free[n-1], sinkBufs.free[:n-1]
	}
	sinkBufs.Unlock()
	if buf == nil {
		buf = make([]byte, 0, sinkBuffer)
	}
	return &Sink{w: f, buf: buf}, nil
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

// Close flushes the buffered lines, returns the buffer to the free list,
// closes the file and returns the first error the sink met. Further calls
// return the same error and do nothing.
func (s *Sink) Close() error {
	if s.closed {
		return s.err
	}
	s.closed = true
	s.flush()
	if cap(s.buf) == sinkBuffer {
		sinkBufs.Lock()
		sinkBufs.free = append(sinkBufs.free, s.buf)
		sinkBufs.Unlock()
	}
	s.buf = nil
	if err := s.w.Close(); s.err == nil {
		s.err = err
	}
	return s.err
}
