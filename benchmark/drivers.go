package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"testing"
)

// A driver is a small loop over public functions of one layer, measured
// with testing.Benchmark: time per operation and, where the layer promises
// an allocation-free hot path, allocations per operation. Drivers price a
// layer in isolation; the traced pass prices it inside a workload.
type driver struct {
	metric string  // receives time per operation
	per    float64 // nanoseconds in the metric's unit: 1, 1e3 (us) or 1e6 (ms)
	allocs string  // receives allocations per operation ("" reports none)
	fn     func(b *testing.B)
}

// coreAlgs are the algorithms of the paper's comparison whose per-ack
// increase the ladder prices at two and eight subflows.
var coreAlgs = []string{"lia", "olia", "balia", "ecmtcp", "dts-lia", "dtsep"}

func drivers() []driver {
	ds := []driver{
		{"sim.schedule_fire_ns", 1, "sim.allocs_per_event", driveScheduleFire},
		{"sim.deep_queue_ns_1k", 1, "", driveDeepQueue(1 << 10)},
		{"sim.deep_queue_ns_64k", 1, "", driveDeepQueue(1 << 16)},
		{"sim.timer_restart_ns", 1, "", driveTimerRestart},
		{"netem.link_pkt_ns", 1, "netem.allocs_per_pkt", drivePackets(1, 100)},
		{"netem.path6_pkt_ns", 1, "", drivePackets(6, 100)},
		{"netem.drop_pkt_ns", 1, "", driveDrops},
		{"tcp.seg_ns_reno1", 1, "", driveSegments("reno", 1)},
		{"mptcp.seg_ns_lia2", 1, "mptcp.allocs_per_seg", driveSegments("lia", 2)},
		{"mptcp.seg_ns_lia8", 1, "", driveSegments("lia", 8)},
		{"mptcp.new_us_n2", 1e3, "mptcp.new_allocs_n2", driveConnBuild(2)},
		{"mptcp.new_us_n8", 1e3, "", driveConnBuild(8)},
		{"topo.fattree_build_us_k4", 1e3, "", driveFatTreeBuild(4)},
		{"topo.fattree_build_us_k8", 1e3, "", driveFatTreeBuild(8)},
		{"topo.paths_ns_n8", 1, "topo.paths_allocs_n8", drivePaths},
		{"flows.lifecycle_us", 1e3, "flows.lifecycle_allocs", driveFlowLifecycle},
		{"backend.fluid_point_us", 1e3, "", driveBackendPoint(fluidPoint)},
		{"backend.packet_point_ms", 1e6, "", driveBackendPoint(packetPoint)},
		{"obsv.sample_line_ns", 1, "obsv.sample_allocs", driveSampleLine},
		{"energy.meter_tick_ns", 1, "", driveMeterTick},
		{"check.tick_us", 1e3, "", driveCheckTick},
		{"stats.percentile_ms_50k", 1e6, "", drivePercentile},
		{"campaign.journal_append_us", 1e3, "", driveJournalAppend},
		{"runner.dispatch_us", 1e3, "", driveDispatch},
	}
	for _, alg := range coreAlgs {
		for _, n := range []int{2, 8} {
			ds = append(ds, driver{fmt.Sprintf("core.inc_ns.%s.n%d", alg, n), 1, "", driveIncrease(alg, n)})
		}
	}
	return ds
}

// driverMetricNames lists every metric the drivers report.
func driverMetricNames() []string {
	var names []string
	for _, d := range drivers() {
		names = append(names, d.metric)
		if d.allocs != "" {
			names = append(names, d.allocs)
		}
	}
	return names
}

// runDrivers measures every driver for benchtime each ("30ms", or "1x" for
// the smoke test) and returns every driver metric plus the drivers that
// failed, whose metrics read 0.
func runDrivers(benchtime string) (map[string]metricValue, []string) {
	testing.Init()
	var failed []string
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		failed = append(failed, "test.benchtime: "+err.Error())
	}
	units := map[float64]string{1: "ns", 1e3: "us", 1e6: "ms"}
	out := map[string]metricValue{}
	for _, d := range drivers() {
		r := testing.Benchmark(d.fn)
		n := float64(r.N)
		if r.N == 0 {
			failed = append(failed, d.metric)
			n = 1 // a failed benchmark reports zero time and allocations
		}
		out[d.metric] = metricValue{float64(r.T.Nanoseconds()) / n / d.per, units[d.per]}
		if d.allocs != "" {
			out[d.allocs] = metricValue{float64(r.MemAllocs) / n, "count"}
		}
	}
	return out, failed
}

// driveScheduleFire is the minimal self-rescheduling tick: the pending set
// stays at one event, so this is the engine's fixed cost per event. It
// doubles as the hardware calibration recorded in every result's meta.
func driveScheduleFire(b *testing.B) {
	driveDeepQueue(1)(b)
}

// driveDeepQueue holds depth self-rescheduling events pending, with periods
// spread over 1–7 µs at nanosecond grain so that timestamps rarely tie and
// the queue stays genuinely unsorted; one operation is one event scheduled
// and fired at that depth.
func driveDeepQueue(depth int) func(b *testing.B) {
	return func(b *testing.B) {
		eng := newEngine(1)
		fired, target := 0, -1
		for i := 0; i < depth; i++ {
			period := simMicrosecond + simTime(i*7919%6007)*simMicrosecond/1000
			var tick func()
			tick = func() {
				fired++
				if fired == target {
					eng.Stop()
				}
				eng.ScheduleAfter(period, tick)
			}
			eng.ScheduleAfter(period, tick)
		}
		eng.Run(8 * simMicrosecond) // every event has fired once: the slab is at its size
		b.ReportAllocs()
		b.ResetTimer()
		target = fired + b.N
		eng.Run(eng.Now() + simTime(b.N+8)*simSecond)
	}
}

// driveTimerRestart is the retransmission-timer idiom: arm far ahead,
// cancel, arm again.
func driveTimerRestart(b *testing.B) {
	eng := newEngine(1)
	fn := func() {}
	tm := eng.At(simSecond, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Stop()
		tm = eng.At(eng.Now()+simSecond, fn)
		if i%64 == 0 {
			eng.Run(eng.Now() + simMicrosecond)
		}
	}
}

// sink is the endpoint that ends a driver's route.
type sink struct{ got int }

func (s *sink) Receive(p *packet) {
	s.got++
	p.Release()
}

// drivePackets pushes pooled 1500-byte packets over a chain of hops 10 Gb/s
// links into a sink, 32 at a time so queues form and drain; one operation
// is one packet delivered end to end.
func drivePackets(hops, queue int) func(b *testing.B) {
	return func(b *testing.B) {
		eng := newEngine(1)
		route := make([]*link, hops)
		for i := range route {
			route[i] = newLink(eng, linkConfig{Name: "hop", Rate: 10 * gbps, Delay: simMicrosecond, QueueLimit: queue})
		}
		var pool packetPool
		dst := &sink{}
		send := func(n int) {
			for i := 0; i < n; i++ {
				p := pool.Get()
				p.Size = 1500
				p.SetRoute(route, dst)
				p.Send()
			}
			eng.Run(eng.Now() + simMillisecond)
		}
		send(32)
		b.ReportAllocs()
		b.ResetTimer()
		for sent := 0; sent < b.N; sent += 32 {
			send(min(32, b.N-sent))
		}
		b.StopTimer()
		if dst.got != 32+b.N {
			b.Fatalf("delivered %d of %d packets", dst.got, 32+b.N)
		}
	}
}

// driveDrops offers packets to a link whose two-packet queue is full, so
// every operation takes the drop-and-release path.
func driveDrops(b *testing.B) {
	eng := newEngine(1)
	l := newLink(eng, linkConfig{Name: "full", Rate: mbps, Delay: simMillisecond, QueueLimit: 2})
	route := []*link{l}
	var pool packetPool
	dst := &sink{}
	offer := func() {
		p := pool.Get()
		p.Size = 1500
		p.SetRoute(route, dst)
		p.Send()
	}
	offer()
	offer()
	offer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offer()
	}
	b.StopTimer()
	if l.Dropped() < uint64(b.N) {
		b.Fatalf("dropped %d of %d packets", l.Dropped(), b.N)
	}
}

// privatePaths builds n disjoint one-hop paths at rate each.
func privatePaths(eng *simEngine, n int, rate int64) []*netPath {
	paths := make([]*netPath, n)
	for i := range paths {
		lc := linkConfig{Name: "p", Rate: rate, Delay: 5 * simMillisecond, QueueLimit: 64}
		paths[i] = &netPath{
			Name:    fmt.Sprintf("p%d", i),
			Forward: []*link{newLink(eng, lc)},
			Reverse: []*link{newLink(eng, lc)},
		}
	}
	return paths
}

// driveSegments runs one long-lived connection of n subflows over disjoint
// paths sharing 80 Mb/s; one operation is one segment acknowledged, with
// everything below the connection — subflows, links, engine — included.
func driveSegments(alg string, n int) func(b *testing.B) {
	return func(b *testing.B) {
		eng := newEngine(1)
		c, err := newConn(eng, connConfig{Algorithm: alg}, 1, privatePaths(eng, n, 80*mbps/int64(n))...)
		if err != nil {
			b.Fatal(err)
		}
		c.Start()
		eng.Run(3 * simSecond) // past slow start and the first loss episodes
		b.ReportAllocs()
		b.ResetTimer()
		for target := c.AckedSegs() + int64(b.N); c.AckedSegs() < target; {
			eng.Run(eng.Now() + simMillisecond)
		}
	}
}

// driveConnBuild prices mptcp.New over n ready-made paths: what a flow
// population pays per admitted flow before the first packet.
func driveConnBuild(n int) func(b *testing.B) {
	return func(b *testing.B) {
		eng := newEngine(1)
		paths := privatePaths(eng, n, 100*mbps)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := newConn(eng, connConfig{Algorithm: "lia", TransferBytes: 8 << 10}, uint64(i+1), paths...); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func driveIncrease(alg string, n int) func(b *testing.B) {
	return func(b *testing.B) {
		a, err := newAlgorithm(alg)
		if err != nil {
			b.Fatal(err)
		}
		views := make([]view, n)
		for i := range views {
			rtt := 0.01 + 0.007*float64(i)
			views[i] = view{Cwnd: 12 + 9*float64(i%4), SSThresh: 8, SRTT: rtt, LastRTT: rtt * 1.03, BaseRTT: rtt * 0.7, Price: 0.5}
		}
		var total float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			total += a.Increase(views, i%n)
		}
		if math.IsNaN(total) {
			b.Fatalf("%s: increase is not a number", alg)
		}
	}
}

func driveFatTreeBuild(k int) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := newFatTree(nil, newEngine(1), k); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// drivePaths asks a k=8 fat tree for eight inter-pod paths, walking the
// host pairs so no pair repeats within a pass.
func drivePaths(b *testing.B) {
	ft, err := newFatTree(nil, newEngine(1), 8)
	if err != nil {
		b.Fatal(err)
	}
	hosts := ft.Hosts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % hosts
		if got := ft.Paths(src, (src+hosts/2)%hosts, 8); len(got) != 8 {
			b.Fatalf("got %d paths", len(got))
		}
	}
}

// driveFlowLifecycle offers b.N one-segment flows to a manager on a k=4 fat
// tree: admit, Paths, connection build, one round trip, teardown.
func driveFlowLifecycle(b *testing.B) {
	eng := newEngine(1)
	ft, err := newFatTree(nil, eng, 4)
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := newFlowManager(nil, eng, ft, oneSegmentConfig(b.N))
	if err != nil {
		b.Fatal(err)
	}
	mgr.OnDrained = eng.Stop
	b.ReportAllocs()
	b.ResetTimer()
	mgr.Start()
	eng.Run(simTime(b.N+60) * simSecond)
	b.StopTimer()
	if st := mgr.Stats(); st.Completed != uint64(b.N) {
		b.Fatalf("completed %d of %d flows", st.Completed, b.N)
	}
}

func driveBackendPoint(run func(scenario) (backendResult, error)) func(b *testing.B) {
	return func(b *testing.B) {
		sc := scenario{Topology: "twopath-asym", Algorithm: "lia", Load: 0.05, Seed: 1}
		for i := 0; i < b.N; i++ {
			if _, err := run(sc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// driveSampleLine prices one recorder tick over 32 series streamed as JSONL
// to io.Discard.
func driveSampleLine(b *testing.B) {
	eng := newEngine(1)
	rec := newDiscardRecorder(eng)
	for i := 0; i < 32; i++ {
		v := float64(i) + 0.25
		rec.AddSampler(fmt.Sprintf("series%02d", i), func() float64 { return v })
	}
	rec.Start()
	eng.Run(4 * rec.Interval())
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run(eng.Now() + simTime(b.N)*rec.Interval())
	b.StopTimer()
	if err := rec.Close(); err != nil {
		b.Fatal(err)
	}
}

// idleConns builds n unstarted connections of subs subflows each.
func idleConns(b *testing.B, eng *simEngine, n, subs int) []*conn {
	conns := make([]*conn, n)
	for i := range conns {
		c, err := newConn(eng, connConfig{Algorithm: "lia"}, uint64(i+1), privatePaths(eng, subs, 100*mbps)...)
		if err != nil {
			b.Fatal(err)
		}
		conns[i] = c
	}
	return conns
}

// driveMeterTick prices one power-meter sample over a host's eight
// connections of two subflows each.
func driveMeterTick(b *testing.B) {
	eng := newEngine(1)
	m := newConnMeter(eng, idleConns(b, eng, 8, 2)...)
	const interval = 10 * simMillisecond // energy.DefaultInterval
	eng.Run(4 * interval)
	b.ResetTimer()
	eng.Run(eng.Now() + simTime(b.N)*interval)
	b.StopTimer()
	if m.Joules() <= 0 {
		b.Fatal("meter integrated no energy")
	}
}

// driveCheckTick prices one invariant sweep over 16 connections of eight
// subflows and their links.
func driveCheckTick(b *testing.B) {
	eng := newEngine(1)
	inv := newInvariants(eng)
	for i, c := range idleConns(b, eng, 16, 8) {
		inv.Watch(fmt.Sprintf("conn%d", i), c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inv.Check()
	}
	b.StopTimer()
	if err := inv.Err(); err != nil {
		b.Fatal(err)
	}
}

func drivePercentile(b *testing.B) {
	xs := make([]float64, 50_000)
	r := newEngine(1).Rand()
	for i := range xs {
		xs[i] = r.ExpFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if percentile(xs, 99) <= 0 {
			b.Fatal("p99 not positive")
		}
	}
}

// driveJournalAppend appends to a campaign journal on real disk; the number
// depends on the disk and is informative only.
func driveJournalAppend(b *testing.B) {
	dir, err := os.MkdirTemp(outDir(), "journal-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	j, err := openJournal(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append(journalEntry(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
}

// driveDispatch prices the run pool per item, 64 trivial items a call.
func driveDispatch(b *testing.B) {
	for done := 0; done < b.N; done += 64 {
		if err := dispatch(min(64, b.N-done)); err != nil {
			b.Fatal(err)
		}
	}
}
