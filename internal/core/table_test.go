package core

import (
	"sort"
	"testing"
)

func TestTableIsSortedByName(t *testing.T) {
	if names := Names(); !sort.StringsAreSorted(names) {
		t.Errorf("table out of order (Names promises sorted output): %v", names)
	}
}

// TestHotPathDoesNotAllocate walks the registry: every method the transport
// or a sampler calls per ACK, per loss, per round, per path event or per
// tick runs without allocating once the algorithm's per-path state has grown
// to the connection's width.
func TestHotPathDoesNotAllocate(t *testing.T) {
	for _, name := range Names() {
		for _, n := range []int{2, 8} {
			alg := MustNew(name)
			flows := make([]View, n)
			for k := range flows {
				rtt := 0.02 + 0.013*float64(k)
				flows[k] = View{Cwnd: 10 + 3*float64(k), SSThresh: 8, SRTT: rtt, LastRTT: rtt * 1.1, BaseRTT: rtt * 0.7, Price: 0.5, Now: 1.5}
			}
			r := n - 1
			calls := map[string]func(){
				"Increase": func() { alg.Increase(flows, r) },
				"Decrease": func() { alg.Decrease(flows, r) },
			}
			if a, ok := alg.(AckObserver); ok {
				calls["OnAck"] = func() { a.OnAck(flows, r, 2, false) }
			}
			if a, ok := alg.(RoundTuner); ok {
				calls["OnRound"] = func() { a.OnRound(flows, r) }
			}
			if a, ok := alg.(PathObserver); ok {
				calls["OnPath(timeout)"] = func() { a.OnPath(flows, r, PathTimeout) }
				calls["OnPath(down)"] = func() { a.OnPath(flows, r, PathDown) }
				calls["OnPath(up)"] = func() { a.OnPath(flows, r, PathUp) }
			}
			if a, ok := alg.(Introspector); ok {
				row := map[string]float64{}
				calls["Introspect"] = func() { a.Introspect(flows, r, row) }
			}
			for _, call := range calls {
				call() // grow lazily sized state, fill the row's key set
			}
			for method, call := range calls {
				if avg := testing.AllocsPerRun(100, call); avg != 0 {
					t.Errorf("%s n=%d: %s allocates %.1f times per call, want 0", name, n, method, avg)
				}
			}
		}
	}
}
