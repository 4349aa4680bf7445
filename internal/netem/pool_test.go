package netem

import (
	"reflect"
	"testing"
	"unsafe"

	"mptcpsim/internal/sim"
)

// poolCarryFields are the unexported Packet fields that intentionally
// survive recycling: the cached forward closure (bound to the packet
// pointer), the pool backpointer and the generation/release bookkeeping.
var poolCarryFields = map[string]bool{
	"fwdFn": true, "pool": true, "gen": true, "pooled": true,
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
	// The cached forward closure must keep working across pool cycles.
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

// TestPacketSizeBudget holds Packet at the 176 bytes it had before it carried
// a hop timer and a queue link: their 32 bytes were paid for by narrowing
// Subflow, Size and hop to 32 bits and packing the flags, and every queued or
// in-flight packet of a run costs this much.
func TestPacketSizeBudget(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 176 {
		t.Errorf("Packet is %d bytes, budget 176", got)
	}
}
