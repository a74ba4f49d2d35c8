package cdf

import (
	"fmt"
	"testing"

	"cdf/internal/core"
	"cdf/internal/oracle"
	"cdf/internal/workload"
)

// TestFastSlowEquivalence is the bit-identity contract behind the hot-path
// optimisations (DESIGN.md §9): for every suite kernel on every machine
// mode, the optimised loop (scoreboard scheduler + event-driven idle skip)
// must produce exactly the cycle count, stop reason, and complete statistics
// of the -slowpath reference loop. The fast run additionally executes under
// the differential oracle, so its retired-uop stream is checked
// architecturally uop by uop.
func TestFastSlowEquivalence(t *testing.T) {
	const uops = 25_000
	variants := []struct {
		name     string
		allModes bool // run the variant on every mode, not just CDF/Hybrid
		mut      func(*core.Config)
	}{
		{"default", true, nil},
		{"static-partition", false, func(cfg *core.Config) { cfg.CDF.DisableDynamicPartition = true }},
		// The full instruction-supply stack: timed L1I, FDIP, shadow BTB.
		// Equivalence here covers the frontend engine's own state in the
		// idle-skip signature and the FDIP-specific skip bound.
		{"frontend", true, func(cfg *core.Config) {
			cfg.Front.FDIP = true
			cfg.Front.ShadowBTB = true
			cfg.Mem.L1IMSHRs = 16
		}},
	}
	for _, mm := range simModes {
		for _, v := range variants {
			if !v.allModes && mm.mode != core.ModeCDF && mm.mode != core.ModeHybrid {
				continue // partition ablations only exist where partitions do
			}
			for _, w := range workload.All() {
				mm, v, w := mm, v, w
				t.Run(fmt.Sprintf("%s/%s/%s", mm.name, v.name, w.Name), func(t *testing.T) {
					t.Parallel()
					run := func(slow, withOracle bool) *core.Core {
						p, m := w.Build()
						cfg := core.Default()
						cfg.Mode = mm.mode
						cfg.MaxRetired = uops
						cfg.MaxCycles = uops * 100
						cfg.Seed = 1
						cfg.SlowPath = slow
						if v.mut != nil {
							v.mut(&cfg)
						}
						c, err := core.New(cfg, p, m)
						if err != nil {
							t.Fatal(err)
						}
						if withOracle {
							oracle.Attach(c, p, m)
						}
						for !c.Finished() {
							c.Cycle()
						}
						return c
					}
					fast := run(false, true)
					slow := run(true, false)
					if err := fast.Err(); err != nil {
						t.Fatalf("fast path diverged from the oracle: %v", err)
					}
					if fast.StopReason() != slow.StopReason() {
						t.Fatalf("stop reason: fast %s, slow %s", fast.StopReason(), slow.StopReason())
					}
					if fast.Cycles() != slow.Cycles() {
						t.Errorf("cycles: fast %d, slow %d", fast.Cycles(), slow.Cycles())
					}
					if *fast.Stats() != *slow.Stats() {
						ft, st := fast.Stats().Table(), slow.Stats().Table()
						for i := range ft {
							if ft[i] != st[i] {
								t.Errorf("stat %s: fast %v, slow %v", ft[i].Name, ft[i].Value, st[i].Value)
							}
						}
						t.Errorf("statistics differ between fast and slow paths")
					}
				})
			}
		}
	}
}
