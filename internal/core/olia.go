package core

// OLIA — the Opportunistic Linked-Increases Algorithm (Khalili et al.,
// CoNEXT 2012) — is the Pareto-optimal algorithm of the paper's Fig. 6
// comparison. Per ACK on path r:
//
//	w_r += w_r/RTT_r² / (Σ_k w_k/RTT_k)² + α_r/w_r
//
// where α_r opportunistically moves window growth to the "best" paths
// (largest inter-loss-estimated rate) that do not already hold the largest
// window. Loss halves the subflow window.

const oliaDefaultInterval = 1 << 20 // loss interval before any loss is seen

type oliaPathState struct {
	sinceLoss    float64 // packets acked since the most recent loss
	lastInterval float64 // packets between the previous two losses
}

// OLIA implements the opportunistic linked-increases algorithm.
type OLIA struct {
	paths []oliaPathState
}

// NewOLIA returns an OLIA instance.
func NewOLIA() *OLIA { return &OLIA{} }

// Name implements Algorithm.
func (*OLIA) Name() string { return "olia" }

func (o *OLIA) grow(n int) {
	for len(o.paths) < n {
		o.paths = append(o.paths, oliaPathState{})
	}
}

// interLoss returns ℓ_r, the smoothed inter-loss interval in packets (the
// kernel's max of the current and previous interval).
func (o *OLIA) interLoss(r int) float64 {
	s := o.paths[r]
	l := s.sinceLoss
	if s.lastInterval > l {
		l = s.lastInterval
	}
	if l <= 0 {
		l = oliaDefaultInterval
	}
	return l
}

// OnAck implements AckObserver.
func (o *OLIA) OnAck(flows []View, r int, ackedPkts int, ece bool) {
	o.grow(len(flows))
	o.paths[r].sinceLoss += float64(ackedPkts)
}

// OnLoss implements LossObserver.
func (o *OLIA) OnLoss(flows []View, r int) {
	o.grow(len(flows))
	o.paths[r].lastInterval = o.paths[r].sinceLoss
	o.paths[r].sinceLoss = 0
}

// sets reports whether path k, in state f, belongs to B — the paths
// maximizing the rate proxy ℓ_k²/RTT_k — and to M — the paths with the
// largest window. A path without an RTT sample is in neither.
func (o *OLIA) sets(f View, k int, bestProxy, maxW float64) (inB, inM bool) {
	if f.SRTT <= 0 {
		return false, false
	}
	const tol = 1e-9
	l := o.interLoss(k)
	return l*l/f.SRTT >= bestProxy*(1-tol), f.Cwnd >= maxW*(1-tol)
}

// alpha returns α_r per the OLIA definition.
func (o *OLIA) alpha(flows []View, r int) float64 {
	o.grow(len(flows))
	n := float64(len(flows))

	var bestProxy, maxW float64
	for k, f := range flows {
		if f.SRTT <= 0 {
			continue
		}
		l := o.interLoss(k)
		if p := l * l / f.SRTT; p > bestProxy {
			bestProxy = p
		}
		if f.Cwnd > maxW {
			maxW = f.Cwnd
		}
	}
	var nBnotM, nM int
	for k, f := range flows {
		inB, inM := o.sets(f, k, bestProxy, maxW)
		if inM {
			nM++
		}
		if inB && !inM {
			nBnotM++
		}
	}
	if nBnotM == 0 {
		return 0 // every best path already has the largest window
	}
	switch inB, inM := o.sets(flows[r], r, bestProxy, maxW); {
	case inB && !inM:
		return 1 / (n * float64(nBnotM))
	case inM:
		return -1 / (n * float64(nM))
	default:
		return 0
	}
}

// Increase implements Algorithm.
func (o *OLIA) Increase(flows []View, r int) float64 {
	f := flows[r]
	if f.Cwnd <= 0 || f.SRTT <= 0 {
		return 0
	}
	sum := SumRates(flows)
	if sum <= 0 {
		return 0
	}
	base := f.Cwnd / (f.SRTT * f.SRTT * sum * sum)
	return base + o.alpha(flows, r)/f.Cwnd
}

// Decrease implements Algorithm.
func (*OLIA) Decrease(flows []View, r int) float64 { return flows[r].Cwnd / 2 }

var (
	_ Algorithm    = (*OLIA)(nil)
	_ AckObserver  = (*OLIA)(nil)
	_ LossObserver = (*OLIA)(nil)
)
