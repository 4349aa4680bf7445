// Package energy implements the power/energy side of the paper: parametric
// host power models P_r(τ_r, RTT_r) calibrated to the paper's RAPL and
// Nexus-5 measurements (§III), and meters that integrate power over
// simulated time to produce the E_total of Eq. 2.
//
// Calibration anchors, taken from the paper's figures:
//   - Fig. 1: MPTCP consumes more CPU power than TCP and power grows with
//     the subflow count (per-subflow processing cost).
//   - Fig. 3a (Ethernet): power rises only ~15% from 200 Mb/s to 1 Gb/s —
//     a flat, sub-linear (square-root) dependence; total energy of a fixed
//     transfer therefore *falls* with throughput.
//   - Fig. 3b (WiFi): power rises ~90% from 10 to 50 Mb/s — linear with a
//     steep slope.
//   - Fig. 4: at fixed throughput, higher-RTT paths cost more CPU power.
//   - LTE model: Huang et al. (MobiSys 2012) — high base power when the
//     radio is active, small per-Mb/s slope for downlink.
package energy

import (
	"fmt"
	"math"
	"strings"
)

// Sample carries the instantaneous observables a power model maps to watts:
// the host aggregate and, beside it, the per-path breakdown Eq. 2 sums over —
// E = Σ_r P_r(τ_r, RTT_r)·T. A model reads the form it is calibrated in:
// CPUModel and RadioModel the aggregate, NexusModel the paths.
type Sample struct {
	// ThroughputBps is the host's current transport goodput in bits/s.
	ThroughputBps float64
	// Subflows is the number of active subflows terminating at the host.
	Subflows int
	// MeanRTTSeconds is the traffic-weighted mean smoothed RTT across those
	// subflows: a path contributes its delay in proportion to the traffic it
	// carries.
	MeanRTTSeconds float64
	// Paths is the same activity per subflow, in connection order. It
	// aliases the producing probe's buffer and is valid until the probe is
	// called again.
	Paths []PathSample
}

// PathSample is one subflow's share of a Sample.
type PathSample struct {
	// Name is the subflow's netem path name — the interface it rides, for a
	// model that prices interfaces apart.
	Name string
	// ThroughputBps is the subflow's goodput in bits/s; RTTSeconds its
	// smoothed RTT.
	ThroughputBps float64
	RTTSeconds    float64
}

// rttMean accumulates the traffic-weighted mean RTT of Eq. 2's per-path
// form, falling back to the plain mean while nothing carries traffic.
type rttMean struct {
	weighted, weight, plain float64
	n                       int
}

func (m *rttMean) add(traffic, rtt float64) {
	m.n++
	m.plain += rtt
	m.weighted += traffic * rtt
	m.weight += traffic
}

func (m *rttMean) mean() float64 {
	switch {
	case m.weight > 0:
		return m.weighted / m.weight
	case m.n > 0:
		return m.plain / float64(m.n)
	}
	return 0
}

// PathsSample is the Sample of a host whose activity is known per path —
// the form an equilibrium solution comes in — with the aggregate ConnProbe
// would report for it.
func PathsSample(paths []PathSample) Sample {
	s := Sample{Subflows: len(paths), Paths: paths}
	var rtt rttMean
	for _, p := range paths {
		s.ThroughputBps += p.ThroughputBps
		rtt.add(p.ThroughputBps, p.RTTSeconds)
	}
	s.MeanRTTSeconds = rtt.mean()
	return s
}

// Model maps host activity to instantaneous power in watts.
type Model interface {
	Name() string
	Power(s Sample) float64
}

// CPUModel is the wired-host CPU power model (the paper's RAPL package
// power): idle floor, a sub-linear throughput term, a per-subflow
// processing cost (Fig. 1) and an RTT-dependent term (Fig. 4 — more
// outstanding state and retransmission bookkeeping on long paths).
type CPUModel struct {
	ModelName string
	Idle      float64 // watts at zero traffic
	TputCoef  float64 // watts at RefRate (added as sqrt(τ/RefRate))
	RefRate   float64 // bits/s normalization
	PerFlow   float64 // watts per active subflow
	RTTCoef   float64 // watts per (τ/RefRate)·(RTT/RefRTT)
	RefRTT    float64 // seconds
}

// Name implements Model.
func (m *CPUModel) Name() string { return m.ModelName }

// Power implements Model.
func (m *CPUModel) Power(s Sample) float64 {
	p := m.Idle
	if s.ThroughputBps > 0 {
		norm := s.ThroughputBps / m.RefRate
		p += m.TputCoef * math.Sqrt(norm)
		p += m.RTTCoef * norm * (s.MeanRTTSeconds / m.RefRTT)
	}
	p += m.PerFlow * float64(s.Subflows)
	return p
}

// NewI7 returns the Quad-core i7-3770 model of the paper's testbed,
// calibrated so 200 Mb/s -> 1 Gb/s raises power by ~15-20% at LAN RTTs
// (Fig. 3a) while path delay changes power measurably at fixed throughput
// (Fig. 4) — the premise Eq. 2 builds on.
func NewI7() *CPUModel {
	return &CPUModel{
		ModelName: "i7-3770",
		Idle:      5.0,
		TputCoef:  2.0,
		RefRate:   1e9,
		PerFlow:   0.1,
		RTTCoef:   55.0,
		RefRTT:    0.1,
	}
}

// NewXeon returns the Octa-core Xeon E5-2680 v2 model (the paper's second
// machine type and the EC2 c4.xlarge host CPU): higher floor, same shape.
func NewXeon() *CPUModel {
	return &CPUModel{
		ModelName: "xeon-e5",
		Idle:      18.0,
		TputCoef:  6.0,
		RefRate:   1e9,
		PerFlow:   0.15,
		RTTCoef:   90.0,
		RefRTT:    0.1,
	}
}

// RadioModel is an affine radio power model: Base watts whenever the
// interface is active plus Slope watts per bit/s. WiFi and LTE instances
// follow the paper's Fig. 3b and Huang et al.'s LTE measurements.
type RadioModel struct {
	ModelName string
	IdleW     float64 // power when the interface carries no traffic
	Base      float64 // power when active
	Slope     float64 // watts per bit/s
}

// Name implements Model.
func (m *RadioModel) Name() string { return m.ModelName }

// Power implements Model.
func (m *RadioModel) Power(s Sample) float64 {
	if s.ThroughputBps <= 0 {
		return m.IdleW
	}
	return m.Base + m.Slope*s.ThroughputBps
}

// NewWiFi returns the WiFi radio model, calibrated so 10 -> 50 Mb/s raises
// power by ~90% (Fig. 3b).
func NewWiFi() *RadioModel {
	return &RadioModel{
		ModelName: "wifi",
		IdleW:     0.05,
		Base:      0.30,
		Slope:     8.7e-9, // 0.0087 W per Mb/s
	}
}

// NewLTE returns the LTE radio model after Huang et al. (MobiSys 2012):
// ~1.29 W base when the radio is in CONNECTED, ~52 mW per downlink Mb/s.
func NewLTE() *RadioModel {
	return &RadioModel{
		ModelName: "lte",
		IdleW:     0.03,
		Base:      1.288,
		Slope:     5.2e-8,
	}
}

// NexusModel composes the Nexus 5 of Fig. 2: SoC base power plus the WiFi
// and LTE radios. It is Eq. 2 as written — one power term per interface —
// so it reads a Sample's per-path breakdown, keyed by path name: traffic on
// a path named "wifi" or "lte" drives that radio, and a radio none of the
// paths names idles.
type NexusModel struct {
	SoC  float64
	WiFi Model
	LTE  Model
}

// NewNexus returns the Fig. 2 handset model.
func NewNexus() *NexusModel {
	return &NexusModel{SoC: 0.45, WiFi: NewWiFi(), LTE: NewLTE()}
}

// Name implements Model (for the composite as a whole).
func (m *NexusModel) Name() string { return "nexus5" }

// radioOf maps a path name to the handset radio it rides: 0 WiFi, 1 LTE,
// -1 for a path the handset has no interface for.
func radioOf(path string) int {
	switch path {
	case "wifi":
		return 0
	case "lte":
		return 1
	}
	return -1
}

// HasRadio reports whether the handset has an interface for a path of that
// name; traffic on any other path would go unmetered.
func (m *NexusModel) HasRadio(path string) bool { return radioOf(path) >= 0 }

// Terms evaluates the per-interface power terms of Eq. 2 in watts.
func (m *NexusModel) Terms(s Sample) (soc, wifi, lte float64) {
	var radios [2]Sample
	for _, p := range s.Paths {
		if i := radioOf(p.Name); i >= 0 {
			radios[i].ThroughputBps += p.ThroughputBps
			radios[i].Subflows++
		}
	}
	return m.SoC, m.WiFi.Power(radios[0]), m.LTE.Power(radios[1])
}

// Power implements Model: the sum of Terms.
func (m *NexusModel) Power(s Sample) float64 {
	soc, wifi, lte := m.Terms(s)
	return soc + wifi + lte
}

// Constant is a fixed-power model, useful in tests and as a switch/port
// energy stand-in.
type Constant float64

// Name implements Model.
func (c Constant) Name() string { return "constant" }

// Power implements Model.
func (c Constant) Power(Sample) float64 { return float64(c) }

// models is the table of host power models scenarios name, sorted by name;
// "none" is no model (nil: no meter).
var models = []struct {
	name string
	make func() Model
}{
	{"i7", func() Model { return NewI7() }},
	{"nexus5", func() Model { return NewNexus() }},
	{"none", func() Model { return nil }},
	{"wifi", func() Model { return NewWiFi() }},
	{"xeon", func() Model { return NewXeon() }},
}

// Names lists the model names Lookup resolves, sorted.
func Names() []string {
	out := make([]string, len(models))
	for i, m := range models {
		out[i] = m.name
	}
	return out
}

// Lookup resolves a host power model by the name scenarios use (Names).
func Lookup(name string) (Model, error) {
	for _, m := range models {
		if m.name == name {
			return m.make(), nil
		}
	}
	return nil, fmt.Errorf("energy: unknown model %q (have %s)", name, strings.Join(Names(), ", "))
}
