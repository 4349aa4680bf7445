package core

// Single-path baselines: Reno (classic TCP, the paper's "TCP" baseline) and
// DCTCP (the datacenter baseline of Fig. 10). Applied to one subflow they
// ignore the rest of the connection.

// Reno is classic AIMD: +1/w per ACK, halve on loss.
type Reno struct{}

// NewReno returns the classic TCP congestion-avoidance policy.
func NewReno() *Reno { return &Reno{} }

// Name implements Algorithm.
func (*Reno) Name() string { return "reno" }

// Increase implements Algorithm.
func (*Reno) Increase(flows []View, r int) float64 {
	if flows[r].Cwnd <= 0 {
		return 0
	}
	return 1 / flows[r].Cwnd
}

// Decrease implements Algorithm.
func (*Reno) Decrease(flows []View, r int) float64 { return flows[r].Cwnd / 2 }

// dctcpGain is the alpha EWMA gain g from the DCTCP paper.
const dctcpGain = 1.0 / 16

// DCTCP implements Data Center TCP (Alizadeh et al., SIGCOMM 2010): Reno
// increase, mark-fraction-proportional decrease. The transport feeds ECN
// echoes through OnAck and round boundaries through OnRound.
type DCTCP struct {
	alpha       float64
	ackedRound  int
	markedRound int
}

// NewDCTCP returns a DCTCP instance with alpha starting at 1 (conservative,
// as in the reference implementation).
func NewDCTCP() *DCTCP { return &DCTCP{alpha: 1} }

// Name implements Algorithm.
func (*DCTCP) Name() string { return "dctcp" }

// Increase implements Algorithm (same additive increase as Reno).
func (*DCTCP) Increase(flows []View, r int) float64 {
	if flows[r].Cwnd <= 0 {
		return 0
	}
	return 1 / flows[r].Cwnd
}

// Decrease implements Algorithm: packet loss still halves the window.
func (*DCTCP) Decrease(flows []View, r int) float64 { return flows[r].Cwnd / 2 }

// OnAck implements AckObserver, accumulating the mark fraction of the
// current round.
func (d *DCTCP) OnAck(flows []View, r int, ackedPkts int, ece bool) {
	d.ackedRound += ackedPkts
	if ece {
		d.markedRound += ackedPkts
	}
}

// OnRound implements RoundTuner: update alpha from the round's mark
// fraction and, if any packet was marked, shrink cwnd by alpha/2.
func (d *DCTCP) OnRound(flows []View, r int) (cwnd, ssthresh float64) {
	f := flows[r]
	cwnd, ssthresh = f.Cwnd, f.SSThresh
	if d.ackedRound == 0 {
		return cwnd, ssthresh
	}
	frac := float64(d.markedRound) / float64(d.ackedRound)
	d.alpha = (1-dctcpGain)*d.alpha + dctcpGain*frac
	if d.markedRound > 0 {
		cwnd = f.Cwnd * (1 - d.alpha/2)
		if cwnd < 1 {
			cwnd = 1
		}
		ssthresh = cwnd
	}
	d.ackedRound, d.markedRound = 0, 0
	return cwnd, ssthresh
}

// Introspect implements Introspector: the mark-fraction estimate that
// scales DCTCP's multiplicative decrease.
func (d *DCTCP) Introspect(flows []View, r int, out map[string]float64) {
	out["alpha"] = d.alpha
}

var (
	_ Algorithm    = (*DCTCP)(nil)
	_ AckObserver  = (*DCTCP)(nil)
	_ RoundTuner   = (*DCTCP)(nil)
	_ Introspector = (*DCTCP)(nil)
	_ Algorithm    = (*Reno)(nil)
)
