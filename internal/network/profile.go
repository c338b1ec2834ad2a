package network

import "repro/internal/telemetry"

// AttachProfiler installs the cycle-level phase profiler on this network:
// Step begins/ends each cycle on it and the routers mark their own
// routing/arbitration boundary so per-phase attribution matches the real
// pipeline order. Attach-on-demand like the checker and the fault
// injector — a network without a profiler pays one nil check per phase
// boundary, and with or without one the network steps the same active-set
// sweep and simulates bit-identically.
func (n *Network) AttachProfiler(p *telemetry.CycleProfiler) {
	n.prof = p
	for _, r := range n.Routers {
		r.Prof = p
	}
}

// Profiler returns the attached cycle profiler, nil when profiling is off.
func (n *Network) Profiler() *telemetry.CycleProfiler { return n.prof }
