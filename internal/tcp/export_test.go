package tcp

import (
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// Received reports the number of data segments that have arrived (including
// duplicates).
func (r *Receiver) Received() uint64 { return r.pktsReceived }

// OutOfOrderPeak reports the largest reordering buffer occupancy seen.
func (r *Receiver) OutOfOrderPeak() int { return r.oooPeak }

// NewSubflow wires a sender over path for subflow id of coordinator coord.
// The matching receiver is created automatically at the far end.
func NewSubflow(eng *sim.Engine, cfg Config, coord Coordinator, flow uint64, id int, path *netem.Path) *Subflow {
	s := new(Subflow)
	s.Reset(eng, cfg, coord, flow, id, path)
	return s
}

// LastRTT returns the latest RTT sample.
func (s *Subflow) LastRTT() sim.Time { return s.rtt.LatestRTT() }

// RTO returns the current retransmission timeout before backoff.
func (s *Subflow) RTO() sim.Time { return s.rto }
