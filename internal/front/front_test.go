package front

import (
	"testing"

	"cdf/internal/isa"
	"cdf/internal/prog"
)

func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"default", func(*Config) {}, true},
		{"perfect l1i", func(c *Config) { c.PerfectL1I = true }, true},
		{"fdip and shadow btb", func(c *Config) { c.FDIP, c.ShadowBTB = true, true }, true},
		{"shadow btb with perfect l1i", func(c *Config) { c.ShadowBTB, c.PerfectL1I = true, true }, true},
		{"fdip with perfect l1i", func(c *Config) { c.FDIP, c.PerfectL1I = true, true }, false},
		{"zero ftq", func(c *Config) { c.FTQSize = 0 }, false},
		{"negative ftq", func(c *Config) { c.FTQSize = -1 }, false},
		{"zero lookahead", func(c *Config) { c.LookaheadUops = 0 }, false},
		{"zero scan", func(c *Config) { c.ScanUops = 0 }, false},
		{"zero min degree", func(c *Config) { c.MinDegree = 0 }, false},
		{"max below min degree", func(c *Config) { c.MinDegree, c.MaxDegree = 3, 2 }, false},
		{"zero throttle interval", func(c *Config) { c.ThrottleInterval = 0 }, false},
		{"shadow btb without entries", func(c *Config) { c.ShadowBTB, c.ShadowEntries = true, 0 }, false},
		{"shadow btb without ways", func(c *Config) { c.ShadowBTB, c.ShadowWays = true, 0 }, false},
		{"shadow entries not divisible by ways", func(c *Config) { c.ShadowBTB, c.ShadowEntries = true, 8190 }, false},
		// The shadow BTB's sizes only matter when it is built.
		{"unused shadow sizes", func(c *Config) { c.ShadowEntries, c.ShadowWays = 0, 0 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default()
			tc.mut(&cfg)
			if err := cfg.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestThrottle drives whole evaluation intervals of 20 issued prefetches
// through a [1,4] throttle, which starts mid-range at degree 2.
func TestThrottle(t *testing.T) {
	const interval = 20
	type window struct{ useful, late int }
	for _, tc := range []struct {
		name    string
		windows []window
		want    []int // degree after each window
	}{
		{"accurate raises by one", []window{{16, 0}}, []int{3}},
		{"accuracy 0.75 raises", []window{{15, 0}}, []int{3}},
		{"late prefetches count as accurate", []window{{0, 15}}, []int{4}},
		{"over a quarter late raises by two", []window{{9, 6}}, []int{4}},
		{"exactly a quarter late raises by one", []window{{10, 5}}, []int{3}},
		{"accuracy 0.40 holds", []window{{8, 0}}, []int{2}},
		{"below 0.40 lowers", []window{{7, 0}}, []int{1}},
		{"clamped at max", []window{{20, 0}, {20, 0}, {20, 0}}, []int{3, 4, 4}},
		{"double raise clamped at max", []window{{20, 0}, {0, 20}}, []int{3, 4}},
		{"clamped at min", []window{{0, 0}, {0, 0}}, []int{1, 1}},
		// Cumulative counters would read 20/40 = 0.5 in the second window
		// and hold the degree.
		{"counters reset per interval", []window{{20, 0}, {0, 0}}, []int{3, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			thr := NewThrottle(Config{MinDegree: 1, MaxDegree: 4, ThrottleInterval: interval})
			if thr.Degree() != 2 {
				t.Fatalf("initial degree %d, want 2", thr.Degree())
			}
			for i, w := range tc.windows {
				for j := 0; j < w.useful; j++ {
					thr.OnUseful()
				}
				for j := 0; j < w.late; j++ {
					thr.OnLate()
				}
				for j := 0; j < interval; j++ {
					thr.OnIssued()
				}
				if got := thr.Degree(); got != tc.want[i] {
					t.Fatalf("window %d: degree %d, want %d", i, got, tc.want[i])
				}
			}
			if thr.TotalIssued != uint64(interval*len(tc.windows)) {
				t.Fatalf("TotalIssued %d, want %d", thr.TotalIssued, interval*len(tc.windows))
			}
		})
	}
}

func TestDecoderLine(t *testing.T) {
	op := func(o isa.Op, target int) isa.Uop {
		return isa.Uop{Op: o, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg, Target: target}
	}
	p := &prog.Program{Name: "decode", Blocks: []*prog.Block{
		{ID: 0, Uops: []isa.Uop{op(isa.OpAdd, isa.NoTarget), op(isa.OpBeq, 1)}},
		// A return's target is dynamic: it is skipped even if the uop
		// names a block.
		{ID: 1, Uops: []isa.Uop{op(isa.OpAdd, isa.NoTarget), op(isa.OpRet, 0)}},
		{ID: 2, Uops: []isa.Uop{op(isa.OpBne, isa.NoTarget)}},
		{ID: 3, Uops: []isa.Uop{op(isa.OpCall, 0)}},
		{ID: 4, Uops: []isa.Uop{op(isa.OpJmp, 1)}},
	}}
	p.AssignPCs()
	const lineBytes = 16 // two uops per line
	d := NewDecoder(p, lineBytes)

	for _, tc := range []struct {
		name       string
		block, idx int
		target     int // taken-path block, or isa.NoTarget if not decoded
	}{
		{"non-branch", 0, 0, isa.NoTarget},
		{"conditional branch", 0, 1, 1},
		{"return", 1, 1, isa.NoTarget},
		{"branch without a static target", 2, 0, isa.NoTarget},
		{"call", 3, 0, 0},
		{"jump", 4, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pc := p.PC(tc.block, tc.idx)
			var found []ShadowBranch
			for _, sb := range d.Line(pc / lineBytes) {
				if sb.PC == pc {
					found = append(found, sb)
				}
			}
			switch {
			case tc.target == isa.NoTarget && len(found) != 0:
				t.Fatalf("decoded %+v, want nothing", found)
			case tc.target != isa.NoTarget && (len(found) != 1 || found[0].Target != p.BlockPC(tc.target)):
				t.Fatalf("decoded %+v, want one branch to %#x", found, p.BlockPC(tc.target))
			}
		})
	}
	if got := d.Line(p.PC(4, 0)/lineBytes + 1); got != nil {
		t.Fatalf("line past the code decoded %+v", got)
	}
}

func TestShadowBTBCounters(t *testing.T) {
	s := NewShadowBTB(Config{ShadowEntries: 64, ShadowWays: 4})
	s.Insert(ShadowBranch{PC: 0x1000, Target: 0x2000})
	for _, tc := range []struct {
		name         string
		backup       bool // Backup (the demand probe) instead of Probe
		pc           uint64
		hit          bool
		probes, hits uint64 // counters after the call
	}{
		{"probe hit", false, 0x1000, true, 0, 0},
		{"probe miss", false, 0x3000, false, 0, 0},
		{"backup hit", true, 0x1000, true, 1, 1},
		{"backup miss", true, 0x3000, false, 2, 1},
		{"probe after backups", false, 0x1000, true, 2, 1},
	} {
		var target uint64
		var ok bool
		if tc.backup {
			target, ok = s.Backup(tc.pc)
		} else {
			target, ok = s.Probe(tc.pc)
		}
		if ok != tc.hit || (ok && target != 0x2000) {
			t.Fatalf("%s: got (%#x, %v), want hit=%v", tc.name, target, ok, tc.hit)
		}
		if s.Probes != tc.probes || s.Hits != tc.hits {
			t.Fatalf("%s: Probes %d Hits %d, want %d %d", tc.name, s.Probes, s.Hits, tc.probes, tc.hits)
		}
	}
	if s.Inserts != 1 {
		t.Fatalf("Inserts %d, want 1", s.Inserts)
	}
}
