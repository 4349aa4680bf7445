package tcp

import (
	"sort"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// Receiver is the far end of a subflow: it acknowledges every arriving data
// segment cumulatively, buffers out-of-order arrivals, echoes the sender's
// timestamp (exact RTT samples), the ECN CE codepoint (for DCTCP) and the
// accumulated path price (for the extended DTS).
type Receiver struct {
	eng *sim.Engine
	sub *Subflow

	rcvNext int64
	ooo     []int64 // sorted out-of-order buffer, every entry > rcvNext

	pktsReceived uint64
	oooPeak      int
}

// Receive implements netem.Endpoint for data segments.
func (r *Receiver) Receive(p *netem.Packet) {
	if p.IsAck {
		p.Release() // a stray ACK addressed to the receiver; drop it
		return
	}
	r.pktsReceived++

	switch {
	case p.Seq == r.rcvNext:
		r.rcvNext++
		// Consume the run of now-consecutive buffered segments. The buffer
		// is sorted and its minimum is always > the old rcvNext, so the run
		// is a prefix; compacting in place keeps the backing array.
		k := 0
		for k < len(r.ooo) && r.ooo[k] == r.rcvNext {
			k++
			r.rcvNext++
		}
		if k > 0 {
			n := copy(r.ooo, r.ooo[k:])
			r.ooo = r.ooo[:n]
		}
	case p.Seq > r.rcvNext:
		r.bufferOutOfOrder(p.Seq)
	default:
		// Duplicate of already-delivered data; still acknowledged below.
	}

	// Answer from the data packet's own pool (plain allocation for unpooled
	// packets), so the ACK recycles in the same domain it was provoked in.
	// The data packet is released before the ACK is drawn: the pool is LIFO,
	// so the ACK is the packet this hop has just pulled into cache, not one
	// that last moved a round trip ago.
	pool, flow, subflow, seq := p.Pool(), p.Flow, p.Subflow, p.Seq
	ce, sentAt, price := p.CE, p.SentAt, p.Price
	p.Release()
	ack := pool.Get()
	ack.Flow = flow
	ack.Subflow = subflow
	ack.IsAck = true
	ack.Ack = r.rcvNext
	ack.SackSeq = seq
	ack.Size = AckBytes
	ack.ECE = ce
	ack.EchoedAt = sentAt
	ack.EchoPrice = price
	ack.SetRoute(r.sub.path.Reverse, r.sub)
	ack.Send()
}

// bufferOutOfOrder inserts seq into the sorted reordering buffer, ignoring
// duplicates.
func (r *Receiver) bufferOutOfOrder(seq int64) {
	i := sort.Search(len(r.ooo), func(i int) bool { return r.ooo[i] >= seq })
	if i < len(r.ooo) && r.ooo[i] == seq {
		return
	}
	r.ooo = append(r.ooo, 0)
	copy(r.ooo[i+1:], r.ooo[i:])
	r.ooo[i] = seq
	if len(r.ooo) > r.oooPeak {
		r.oooPeak = len(r.ooo)
	}
}

var _ netem.Endpoint = (*Receiver)(nil)
