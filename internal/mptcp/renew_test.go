package mptcp

import (
	"fmt"
	"reflect"
	"testing"

	"mptcpsim/internal/core"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// sameState is reflect.DeepEqual with the two allowances a rebuilt object
// needs: func values are not compared (a bound tick closure is equal only to
// itself) and slices are compared by length and content, so a kept backing
// array — empty but non-nil, with spare capacity — equals a nil slice. It
// returns the path of the first difference, or "".
func sameState(a, b reflect.Value, path string, seen map[[2]uintptr]bool) string {
	if a.Kind() != b.Kind() || a.Type() != b.Type() {
		return fmt.Sprintf("%s: %v vs %v", path, a.Type(), b.Type())
	}
	switch a.Kind() {
	case reflect.Func:
		return ""
	case reflect.Ptr:
		if a.Pointer() == b.Pointer() {
			return ""
		}
		if a.IsNil() || b.IsNil() {
			return path + ": nil vs non-nil pointer"
		}
		key := [2]uintptr{a.Pointer(), b.Pointer()}
		if seen[key] {
			return ""
		}
		seen[key] = true
		return sameState(a.Elem(), b.Elem(), path, seen)
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil vs non-nil interface"
			}
			return ""
		}
		return sameState(a.Elem(), b.Elem(), path, seen)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := sameState(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name, seen); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := sameState(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); d != "" {
				return d
			}
		}
		return ""
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: map len %d vs %d", path, a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v]: missing", path, k)
			}
			if d := sameState(a.MapIndex(k), bv, fmt.Sprintf("%s[%v]", path, k), seen); d != "" {
				return d
			}
		}
		return ""
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	default:
		return fmt.Sprintf("%s: kind %v not compared", path, a.Kind())
	}
	return ""
}

// lossyPaths builds n private paths whose 6-packet queues overflow in slow
// start, so a transfer over them leaves SACK scoreboards, retransmission
// lists, reordering buffers, backed-off timers and RTT history behind.
func lossyPaths(eng *sim.Engine, tag string, n int) []*netem.Path {
	ps := make([]*netem.Path, n)
	for i := range ps {
		ps[i] = makePath(eng, fmt.Sprintf("%s%d", tag, i), 10*netem.Mbps, 5*sim.Millisecond, 6)
	}
	return ps
}

// TestResetEqualsNew is the "reuse is invisible" half of the recycling
// contract: a connection that has been through a lossy transfer and is then
// Reset must be field for field the connection New builds from the same
// arguments — for every algorithm, and also when the subflow count changes.
func TestResetEqualsNew(t *testing.T) {
	counts := []struct{ was, now int }{{1, 1}, {2, 2}, {8, 8}, {8, 2}, {2, 8}}
	for _, alg := range core.Names() {
		for _, n := range counts {
			alg, n := alg, n
			t.Run(fmt.Sprintf("%s/%dto%d", alg, n.was, n.now), func(t *testing.T) {
				eng := sim.NewEngine(7)
				used := newConn(t, eng, Config{Algorithm: alg, TransferBytes: 400 << 10}, 1, lossyPaths(eng, "a", n.was)...)
				used.Start()
				eng.Run(120 * sim.Second)
				if !used.Done() {
					t.Fatal("lossy transfer did not complete")
				}
				var rtx uint64
				for _, s := range used.Subflows() {
					rtx += s.Stats().PktsRtx
				}
				if rtx == 0 {
					t.Fatal("transfer saw no loss: the test would not dirty the state Reset must clear")
				}

				next := lossyPaths(eng, "b", n.now)
				cfg := Config{Algorithm: alg, TransferBytes: 64 << 10, RwndSegments: 40}
				if err := used.Reset(eng, cfg, 2, next...); err != nil {
					t.Fatal(err)
				}
				fresh := newConn(t, eng, cfg, 2, next...)
				if d := sameState(reflect.ValueOf(used), reflect.ValueOf(fresh), "conn", map[[2]uintptr]bool{}); d != "" {
					t.Fatalf("Reset differs from New at %s", d)
				}
			})
		}
	}
}

// TestResetRejectsBadConfigUntouched: a refused Reset must leave the old
// connection intact, since the caller still owns it.
func TestResetRejectsBadConfigUntouched(t *testing.T) {
	eng := sim.NewEngine(1)
	p := makePath(eng, "p", 10*netem.Mbps, sim.Millisecond, 100)
	c := newConn(t, eng, Config{Algorithm: "lia", TransferBytes: 10 << 10}, 1, p)
	c.Start()
	eng.Run(10 * sim.Second)
	acked := c.AckedSegs()
	for _, bad := range []struct {
		cfg   Config
		paths []*netem.Path
	}{
		{Config{Algorithm: "no-such-algorithm"}, []*netem.Path{p}},
		{Config{Algorithm: "lia", TransferBytes: 1, AppLimited: true}, []*netem.Path{p}},
		{Config{Algorithm: "lia"}, nil},
	} {
		if err := c.Reset(eng, bad.cfg, 2, bad.paths...); err == nil {
			t.Errorf("Reset accepted %+v over %d paths", bad.cfg, len(bad.paths))
		}
	}
	if !c.Done() || c.AckedSegs() != acked || len(c.Subflows()) != 1 {
		t.Error("a refused Reset modified the connection")
	}
}

// BenchmarkConnRenew times what a churn run pays per admitted flow once its
// free list is warm: rebuilding a closed connection in place. What it
// allocates is the algorithm instance core.New hands out — nothing for a
// stateless algorithm such as lia.
func BenchmarkConnRenew(b *testing.B) {
	for _, n := range []int{2, 8} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			eng := sim.NewEngine(1)
			paths := make([]*netem.Path, n)
			for i := range paths {
				paths[i] = makePath(eng, fmt.Sprintf("p%d", i), 100*netem.Mbps, 100*sim.Microsecond, 100)
			}
			cfg := Config{Algorithm: "lia", TransferBytes: 8 << 10}
			c, err := New(eng, cfg, 1, paths...)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Reset(eng, cfg, uint64(i), paths...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
