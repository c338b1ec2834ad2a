package check_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/schemes"
)

// modeRun is what one stepping mode produced: the delivery digest, the final
// clock, the fault report (zero without a plan), and whether any cycle ended
// with a router outside the active set.
type modeRun struct {
	dig         *check.Digest
	clock       int64
	report      fault.Report
	sawInactive bool
}

// runMode runs cfg to completion in the requested stepping mode, under plan
// when it is non-nil.
func runMode(t *testing.T, cfg network.Config, plan *fault.Plan, dense bool) modeRun {
	t.Helper()
	n := mustNet(t, cfg)
	n.SetDense(dense)
	var res modeRun
	n.OnCycle = func(int64) {
		for id := range n.Routers {
			if !n.RouterActive(id) {
				res.sawInactive = true
				return
			}
		}
	}
	res.dig = check.AttachDigest(n)
	c := check.Attach(n, check.Options{Interval: 64})
	var inj *fault.Injector
	if plan != nil {
		var err error
		if inj, err = fault.Attach(n, plan); err != nil {
			t.Fatal(err)
		}
	}
	n.Run()
	if err := c.Err(); err != nil {
		t.Fatalf("dense=%v: %v", dense, err)
	}
	res.clock = n.Clock.Now()
	if inj != nil {
		res.report = inj.Report()
	}
	return res
}

// staggered builds a plan of one freeze (or stall) per router (or NI) of a
// 4x4 torus, with start cycles and durations staggered so the faults begin
// and end at every phase of the sweep: some while the component sleeps,
// some while it is busy, some overlapping its neighbours' faults.
func staggered(kind fault.EventKind) *fault.Plan {
	p := &fault.Plan{}
	for i := 0; i < 16; i++ {
		e := fault.Event{Kind: kind, Router: i, At: 600 + 97*int64(i), Cycles: 13 + 7*int64(i)}
		if kind == fault.NIStall {
			e = fault.Event{Kind: kind, Endpoint: i, At: 650 + 89*int64(i), Cycles: 11 + 5*int64(i)}
		}
		p.Events = append(p.Events, e)
	}
	return p
}

// TestSkipAheadDenseEquivalence is the byte-identity statement for the
// active-set sweep: for every configuration, seed and fault plan, the sparse
// engine must deliver the exact same message stream — same digest, same
// count — finish at the exact same cycle and report the same fault effects
// as dense stepping, with the invariant checker clean in both modes. Low
// rates exercise all-idle cycles hardest (most cycles touch almost
// nothing); moderate rates exercise mid-sweep wake ordering. Frozen routers
// and stalled NIs do not rotate, so the freeze and stall plans pin that the
// sweep keeps them stepping until their fault ends instead of replaying the
// faulted cycles as idle rotations.
func TestSkipAheadDenseEquivalence(t *testing.T) {
	type tcase struct {
		name string
		kind schemes.Kind
		pat  *protocol.Pattern
		vcs  int
		rate float64
		seed uint64
		plan *fault.Plan
	}
	cases := []tcase{
		{"PR-PAT721-low", schemes.PR, protocol.PAT721, 4, 0.002, 1, nil},
		{"PR-PAT721-mid", schemes.PR, protocol.PAT721, 4, 0.015, 7, nil},
		{"PR-PAT280-fanout", schemes.PR, protocol.PAT280, 4, 0.01, 3, nil},
		{"DR-PAT721-mid", schemes.DR, protocol.PAT721, 8, 0.012, 5, nil},
		{"PR-PAT721-flaky-stall", schemes.PR, protocol.PAT721, 4, 0.008, 2, &fault.Plan{Seed: 3, Events: []fault.Event{
			{Kind: fault.LinkFlaky, At: 600, Until: 2500, Router: 5, Dir: 0, Rate: 0.3},
		}}},
		{"PR-PAT721-flaky-drop", schemes.PR, protocol.PAT721, 4, 0.008, 2, &fault.Plan{Seed: 11, Events: []fault.Event{
			{Kind: fault.LinkFlaky, At: 600, Until: 2500, Router: 5, Dir: 0, Rate: 0.3, Drop: true},
		}}},
		{"PR-PAT271-credit-loss", schemes.PR, protocol.PAT271, 4, 0.008, 4, &fault.Plan{Events: []fault.Event{
			{Kind: fault.CreditLoss, At: 700, Router: 3, Dir: 2, VC: 1},
			{Kind: fault.CreditLoss, At: 900, Router: 10, Dir: 1, VC: 0},
		}}},
		{"PR-PAT721-token-loss-link-down", schemes.PR, protocol.PAT721, 4, 0.008, 6, &fault.Plan{Events: []fault.Event{
			{Kind: fault.LinkDown, At: 500, Router: 9, Dir: 0},
			{Kind: fault.TokenLoss, At: 800},
		}}},
	}
	for _, kind := range []fault.EventKind{fault.RouterFreeze, fault.NIStall} {
		for _, pat := range []*protocol.Pattern{protocol.PAT271, protocol.PAT280} {
			for _, rate := range []float64{0.003, 0.008} {
				cases = append(cases, tcase{fmt.Sprintf("PR-%s-%s-%g", pat.Name, kind, rate),
					schemes.PR, pat, 4, rate, 9, staggered(kind)})
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg(tc.kind, tc.pat, tc.vcs, tc.rate)
			cfg.Seed = tc.seed
			dense := runMode(t, cfg, tc.plan, true)
			sparse := runMode(t, cfg, tc.plan, false)
			if dense.dig.Sum() != sparse.dig.Sum() || dense.dig.Count() != sparse.dig.Count() {
				t.Fatalf("digest diverged: dense %v (%d deliveries) vs sparse %v (%d)",
					dense.dig, dense.dig.Count(), sparse.dig, sparse.dig.Count())
			}
			if dense.clock != sparse.clock {
				t.Fatalf("final clock diverged: dense %d vs sparse %d", dense.clock, sparse.clock)
			}
			if !reflect.DeepEqual(dense.report, sparse.report) {
				t.Fatalf("fault report diverged:\ndense  %+v\nsparse %+v", dense.report, sparse.report)
			}
			if dense.dig.Count() == 0 {
				t.Fatal("equivalence vacuous: nothing delivered")
			}
			for _, e := range dense.report.Events {
				if e.Applied == 0 {
					t.Errorf("equivalence vacuous: event %d (%s) never applied", e.Index, e.Kind)
				}
			}
			if !sparse.sawInactive {
				t.Fatal("equivalence vacuous: every router was active on every cycle")
			}
		})
	}
}

// TestRoutedMaskDriftCaught forges the exact corruption the bitmask sweep is
// exposed to: clearing a VC's canonical Route field without going through
// clearRoute, so the router's routed word and hoisted mirror go stale. The
// active-state cross-check must flag both within one CheckNow.
func TestRoutedMaskDriftCaught(t *testing.T) {
	n := mustNet(t, smallCfg(schemes.PR, protocol.PAT271, 8, 0.01))
	c := check.Attach(n, check.Options{})

	var target *router.VC
	for i := 0; i < 3000 && target == nil; i++ {
		n.RunCycles(1)
		for _, ch := range n.Channels {
			for _, vc := range ch.VCs {
				if vc.Route != nil {
					target = vc
					break
				}
			}
			if target != nil {
				break
			}
		}
	}
	if target == nil {
		t.Fatal("no routed VC appeared within 3000 cycles")
	}

	target.Route = nil // bypasses clearRoute: word and mirror keep the stale route
	c.CheckNow(n.Clock.Now())
	for _, rule := range []string{"routed-mask-drift", "route-mirror-drift"} {
		if !hasRule(c.Violations(), rule) {
			t.Errorf("%s not caught; rules seen: %v", rule, rules(c.Violations()))
		}
	}
}
