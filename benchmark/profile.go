package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"
)

// span is one timed call into the simulator, recorded by the benchmark
// around the call — never inside the program.
type span struct {
	Name     string  `json:"name"`
	Start    float64 `json:"start"` // seconds since the traced pass began
	End      float64 `json:"end"`
	Parent   int     `json:"parent"` // index of the enclosing span, -1 at the top
	Workload string  `json:"workload"`
}

// tracer keeps spans in memory until the traced pass ends. A nil tracer
// records nothing, which is how the timed repetitions run.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// span opens a span and returns the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Seconds(), Parent: parent, Workload: t.workload})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = time.Since(t.t0).Seconds()
		t.open = t.open[:len(t.open)-1]
	}
}

func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// The layers of the ledger are the repository's packages. busyLayers get a
// self-time bucket; rtLayers additionally get a bucket for runtime and
// library leaf samples (malloc, GC assist, write barriers, math, sort)
// charged to the nearest caller inside that package.
var (
	busyLayers = []string{"sim", "netem", "topo", "tcp", "mptcp", "core", "energy", "obsv",
		"check", "faults", "workload", "flows", "fluid", "backend", "other"}
	rtLayers    = []string{"sim", "netem", "tcp", "mptcp", "topo", "flows", "obsv", "check"}
	eventLayers = []string{"sim", "netem", "tcp", "mptcp", "core", "flows"}
)

const modulePrefix = "mptcpsim/internal/"

// layerOf maps a function name to its layer: the package path element after
// mptcpsim/internal/, or "" for a function outside the module's internals.
// The benchmark's own package (main.) counts as inside, under "other".
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "other"
	}
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// ledger is the attribution of one CPU profile: seconds per bucket, which
// sum to total exactly.
type ledger struct {
	busy, rt map[string]float64
	bgGC     float64
	total    float64
	topFuncs map[string]float64 // self seconds per leaf function
}

// attribute charges every sample of a CPU profile to one bucket. A sample
// whose leaf frame (inlined frames resolved) is in internal/L goes to L's
// busy time. A leaf outside the module — the Go runtime, math, sort, os —
// is charged to the nearest module caller: to its rt bucket when the layer
// has one, else to its busy bucket (a layer without an rt bucket carries
// the library time spent on its behalf as its own). With no module caller
// at all — the collector's background workers — the sample goes to
// runtime.bg_gc_busy_s. Packages outside the ledger, and the benchmark's
// own code, are "other".
func attribute(p *cpuProfile) ledger {
	l := ledger{busy: map[string]float64{}, rt: map[string]float64{}, topFuncs: map[string]float64{}}
	for _, s := range p.samples {
		sec := float64(s.nanos) / 1e9
		l.total += sec
		if len(s.stack) == 0 {
			l.bgGC += sec
			continue
		}
		l.topFuncs[s.stack[0]] += sec
		owner, depth := "", 0
		for i, fn := range s.stack {
			if owner = layerOf(fn); owner != "" {
				depth = i
				break
			}
		}
		switch {
		case owner == "":
			l.bgGC += sec
		case depth > 0 && slices.Contains(rtLayers, owner):
			l.rt[owner] += sec
		case slices.Contains(busyLayers, owner):
			l.busy[owner] += sec
		default:
			l.busy["other"] += sec
		}
	}
	return l
}

// cpuProfile is the part of a pprof CPU profile the ledger needs: for every
// sample its CPU time and its call stack as function names, leaf first,
// with inlined frames expanded.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	nanos int64
	stack []string
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes. The profile is already symbolized, so function names come from
// its own string table and no binary is needed. Only the fields used here
// are decoded: Profile{sample=2, location=4, function=5, string_table=6},
// Sample{location_id=1, value=2}, Location{id=1, line=4},
// Line{function_id=1}, Function{id=1, name=2}.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string index
		strs      []string
	)
	err = eachField(raw, func(num int, varint uint64, body []byte) error {
		switch num {
		case 2:
			var s rawSample
			err := eachField(body, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.vals = appendVarints(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(body, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := eachField(body, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	p := &cpuProfile{}
	for _, s := range samples {
		// runtime/pprof writes two values per sample: count, then CPU
		// nanoseconds.
		if len(s.vals) < 2 {
			return nil, errors.New("cpu profile: sample without a cpu/nanoseconds value")
		}
		ps := profSample{nanos: int64(s.vals[1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(strs)) {
					return nil, errors.New("cpu profile: function name outside the string table")
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with every field: the
// value for varint fields, the payload for length-delimited ones.
func eachField(msg []byte, fn func(num int, varint uint64, body []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("truncated field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("truncated varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			body := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, body); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated fixed64")
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values, which arrive
// either one at a time (v) or packed into a payload.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
