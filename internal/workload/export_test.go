package workload

import "mptcpsim/internal/sim"

// Delivered reports packets that survived to the sink.
func (c *CBR) Delivered() uint64 { return c.sink.Pkts }

// OnTime reports the cumulative burst duration so far.
func (p *ParetoOnOff) OnTime() sim.Time { return p.onTime }
