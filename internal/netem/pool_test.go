package netem

import (
	"reflect"
	"strings"
	"testing"

	"mptcpsim/internal/sim"
)

// poolCarryFields are the unexported Packet fields that intentionally
// survive recycling: the pool backpointer and the generation/release
// bookkeeping.
var poolCarryFields = map[string]bool{
	"pool": true, "gen": true, "pooled": true,
}

// TestPoolRecycleScrubsEveryField sets every exported Packet field to a
// non-zero value, releases the packet, and asserts the recycled object —
// which the LIFO free list guarantees is the same one — comes back with
// every field zeroed except the intentional carry-overs. Reflection walks
// the struct so a future field added to Packet without scrub coverage
// fails here instead of leaking stale flags, ECN marks or timestamps into
// the next incarnation.
func TestPoolRecycleScrubsEveryField(t *testing.T) {
	var pool Pool
	p := pool.Get()
	rv := reflect.ValueOf(p).Elem()
	rt := rv.Type()
	set := 0
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		if !f.CanSet() {
			continue // unexported: route state, scrubbed wholesale by Get
		}
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int32, reflect.Int64:
			f.SetInt(77)
		case reflect.Uint, reflect.Uint64:
			f.SetUint(77)
		case reflect.Float64:
			f.SetFloat(7.5)
		default:
			t.Fatalf("Packet.%s has kind %s this test cannot poison — extend it", rt.Field(i).Name, f.Kind())
		}
		set++
	}
	if set == 0 {
		t.Fatal("poisoned no fields; reflection walk is broken")
	}
	p.SetRoute([]*Link{}, nil) // poison the unexported route state too
	p.Release()

	q := pool.Get()
	if q != p {
		t.Fatal("free list did not recycle the released packet")
	}
	for i := 0; i < rv.NumField(); i++ {
		name := rt.Field(i).Name
		if poolCarryFields[name] {
			continue
		}
		if f := rv.Field(i); !f.IsZero() {
			t.Errorf("recycled packet leaks %s (non-zero after Get)", name)
		}
	}
	q.Release()
}

func TestPacketPoolReuseIsClean(t *testing.T) {
	p := NewPacket()
	p.Seq = 42
	p.IsAck = true
	p.Price = 7
	p.SackSeq = 9
	p.Release()
	q := NewPacket()
	// The pool may or may not hand back the same object; either way every
	// field must be zeroed.
	if q.Seq != 0 || q.IsAck || q.Price != 0 || q.SackSeq != 0 || q.CE {
		t.Fatalf("recycled packet not zeroed: %+v", q)
	}
	q.Release()
}

func TestPooledPacketForwardAfterReuse(t *testing.T) {
	// A recycled packet is its own hop event: it must keep forwarding across
	// pool cycles.
	eng := sim.NewEngine(1)
	l := NewLink(eng, LinkConfig{Name: "l", Rate: Gbps, Delay: sim.Microsecond})
	c := &collector{eng: eng}
	for i := 0; i < 100; i++ {
		p := NewPacket()
		p.Seq = int64(i)
		p.Size = 100
		p.SetRoute([]*Link{l}, c)
		p.Send()
		eng.Drain()
	}
	if len(c.pkts) != 100 {
		t.Fatalf("delivered %d packets through pool cycles, want 100", len(c.pkts))
	}
	for i, p := range c.pkts {
		// The collector retains pointers, but since this test releases
		// nothing after delivery, sequence numbers must be intact.
		if p.Seq != int64(i) {
			t.Fatalf("packet %d has seq %d; pooled state leaked", i, p.Seq)
		}
	}
}

func TestDroppedPacketsAreReleased(t *testing.T) {
	// Overflow drops release packets back to the pool; this must not
	// corrupt packets still in flight.
	eng := sim.NewEngine(1)
	l := NewLink(eng, LinkConfig{Name: "l", Rate: 10 * Mbps, Delay: sim.Millisecond, QueueLimit: 4})
	c := &collector{eng: eng}
	for i := 0; i < 50; i++ {
		p := NewPacket()
		p.Seq = int64(i)
		p.Size = 1500
		p.SetRoute([]*Link{l}, c)
		p.Send()
	}
	eng.Drain()
	if len(c.pkts) != 4 {
		t.Fatalf("delivered %d, want 4 (queue limit)", len(c.pkts))
	}
	for i, p := range c.pkts {
		if p.Seq != int64(i) {
			t.Fatalf("in-flight packet %d corrupted by drop recycling (seq %d)", i, p.Seq)
		}
	}
}

func TestLinkPanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLink with zero rate did not panic")
		}
	}()
	NewLink(sim.NewEngine(1), LinkConfig{Name: "bad"})
}

func TestUtilizationIdleLink(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, LinkConfig{Name: "l", Rate: Gbps, Delay: 0})
	eng.Run(sim.Second)
	if u := l.Utilization(); u != 0 {
		t.Errorf("idle link utilization = %v, want 0", u)
	}
}

func TestSetPriceTakesEffect(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, LinkConfig{Name: "l", Rate: Gbps, Delay: 0})
	if l.Price() != 0 {
		t.Fatal("unpriced link has a price")
	}
	l.SetPrice(1.5, 0, 0)
	if l.Price() != 1.5 {
		t.Errorf("Price = %v after SetPrice, want 1.5", l.Price())
	}
}

// TestHopLayout pins the cache-line maps in the Packet and Link comments. A
// hop event meets both objects cold, so what it costs is the number of lines
// it touches: each object must be a whole number of lines (so that its size
// class aligns it), and every field the hop path reads must sit in the
// leading lines. The fields are listed by name, so a field added in front of
// them fails here with the name of the one it pushed out.
func TestHopLayout(t *testing.T) {
	for _, tc := range []struct {
		typ        reflect.Type
		size, line uintptr // the object's budget; where its hop-path fields must end
		hot        []string
	}{
		{reflect.TypeOf(Packet{}), 192, 64, []string{
			"route", "next", "prev", "Price", "Size", "Subflow", "hop", "IsAck", "CE", "ECE", "pooled",
		}},
		{reflect.TypeOf(Link{}), 256, 128, []string{
			"eng", "busyUntil", "headDepart", "queue", "down",
			"cfg.Rate", "cfg.Delay", "cfg.QueueLimit", "cfg.MarkThreshold", "cfg.LossProb",
			"cfg.PriceRho", "cfg.PriceGamma", "cfg.PriceQTarget",
		}},
	} {
		name := tc.typ.Name()
		if got := tc.typ.Size(); got%64 != 0 || got > tc.size {
			t.Errorf("%s is %d bytes, want a multiple of 64 no larger than %d", name, got, tc.size)
		}
		for _, path := range tc.hot {
			typ, end := tc.typ, uintptr(0)
			for _, part := range strings.Split(path, ".") {
				f, ok := typ.FieldByName(part)
				if !ok {
					t.Fatalf("%s has no field %s — update the list with the layout", name, path)
				}
				typ, end = f.Type, end+f.Offset
			}
			if end += typ.Size(); end > tc.line {
				t.Errorf("%s.%s ends at byte %d, past the %d the hop path may touch", name, path, end, tc.line)
			}
		}
	}
}
