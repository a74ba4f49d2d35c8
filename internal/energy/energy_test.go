package energy

import (
	"strings"
	"testing"

	"cdf/internal/stats"
)

func baseParams() Params {
	return Params{
		Width: 6, ROBSize: 352, RSSize: 160, LQSize: 128, SQSize: 72, PRFSize: 416,
		L1ISizeBytes: 32 * 1024, L1DSizeBytes: 32 * 1024, LLCSizeBytes: 1024 * 1024,
		FreqGHz: 3.2,
	}
}

func cdfParams() Params {
	p := baseParams()
	p.CDFEnabled = true
	p.CUCBytes = 18 * 1024
	p.MaskBytes = 4 * 1024
	p.FillBufBytes = 16 * 1024
	p.FIFOBytes = 1536
	return p
}

func sampleStats() *stats.Stats {
	st := &stats.Stats{}
	st.Cycles = 100_000
	st.RetiredUops = 120_000
	st.FetchedUops = 150_000
	st.FlushedUops = 10_000
	st.RetiredLoads = 30_000
	st.RetiredStores = 10_000
	st.RetiredBranches = 15_000
	st.CondBranches = 15_000
	st.L1DHits = 28_000
	st.L1DMisses = 2_000
	st.L1IHits = 140_000
	st.LLCHits = 1_000
	st.LLCMisses = 1_000
	st.DRAMReads = 1_200
	st.DRAMWrites = 300
	return st
}

func TestComputeTotalsPositive(t *testing.T) {
	rep := Compute(baseParams(), sampleStats())
	if rep.TotalPJ <= 0 || rep.StaticPJ <= 0 {
		t.Fatal("energies must be positive")
	}
	sum := 0.0
	for _, it := range rep.Items {
		if it.PJ < 0 {
			t.Fatalf("negative item %s", it.Name)
		}
		sum += it.PJ
	}
	if diff := sum - rep.TotalPJ; diff > 1e-6*rep.TotalPJ || diff < -1e-6*rep.TotalPJ {
		t.Fatal("items must sum to total")
	}
}

func TestCDFAreaFractionMatchesPaper(t *testing.T) {
	rep := Compute(cdfParams(), sampleStats())
	// §4.3: CDF adds ~3.2% area. Allow a band around it.
	if rep.CDFAreaFrac < 0.02 || rep.CDFAreaFrac > 0.05 {
		t.Fatalf("CDF area fraction %.3f outside the paper's ~3.2%% ballpark", rep.CDFAreaFrac)
	}
	if base := Compute(baseParams(), sampleStats()); base.CDFAreaFrac != 0 {
		t.Fatal("baseline core must carry no CDF area")
	}
}

func TestCDFStructureEnergyIsSmall(t *testing.T) {
	st := sampleStats()
	st.CriticalUopsFetched = 20_000
	st.TracesInstalled = 500
	st.FillBufferWalks = 10
	base := Compute(baseParams(), st)
	withCDF := Compute(cdfParams(), st)
	overhead := (withCDF.TotalPJ - base.TotalPJ) / base.TotalPJ
	// The paper: CDF structure energy overhead ~2% of baseline.
	if overhead <= 0 || overhead > 0.08 {
		t.Fatalf("CDF energy overhead %.3f implausible", overhead)
	}
}

func TestAreaScalesWithWindow(t *testing.T) {
	small, mid, big := baseParams(), baseParams(), baseParams()
	small.ROBSize, small.RSSize, small.LQSize, small.SQSize, small.PRFSize = 192, 88, 70, 40, 227
	big.ROBSize, big.RSSize, big.LQSize, big.SQSize, big.PRFSize = 704, 320, 256, 144, 832
	st := sampleStats()
	rs, rm, rb := Compute(small, st), Compute(mid, st), Compute(big, st)
	if !(rs.AreaRel < rm.AreaRel && rm.AreaRel < rb.AreaRel) {
		t.Fatalf("area not monotone in window: %.3f %.3f %.3f", rs.AreaRel, rm.AreaRel, rb.AreaRel)
	}
	if rm.AreaRel < 0.99 || rm.AreaRel > 1.01 {
		t.Fatalf("reference config area = %.3f, want ~1.0", rm.AreaRel)
	}
	// Window area grows superlinearly (the paper's premise for CDF).
	growth := (rb.AreaRel - 1) / (1 - rs.AreaRel)
	if growth < 1.2 {
		t.Fatalf("area growth asymmetry %.2f; expected superlinear scaling", growth)
	}
}

func TestDRAMEnergyDominatesMemoryBoundRuns(t *testing.T) {
	st := sampleStats()
	st.DRAMReads = 50_000
	rep := Compute(baseParams(), st)
	var dram float64
	for _, it := range rep.Items {
		if it.Name == "dram" {
			dram = it.PJ
		}
	}
	if dram < 0.3*rep.TotalPJ {
		t.Fatalf("DRAM share %.2f of a memory-bound run too low", dram/rep.TotalPJ)
	}
}

func TestMoreCyclesMoreStatic(t *testing.T) {
	st1, st2 := sampleStats(), sampleStats()
	st2.Cycles *= 2
	r1, r2 := Compute(baseParams(), st1), Compute(baseParams(), st2)
	if r2.StaticPJ <= r1.StaticPJ {
		t.Fatal("static energy must grow with cycles")
	}
}

func TestReportString(t *testing.T) {
	s := Compute(cdfParams(), sampleStats()).String()
	for _, want := range []string{"total energy", "dram", "static", "cdf-cuc"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestScaleHelper(t *testing.T) {
	if scale(352, 352) != 1 {
		t.Fatal("identity scale")
	}
	if scale(0, 352) != 1 || scale(352, 0) != 1 {
		t.Fatal("degenerate inputs should fall back to 1")
	}
	if !(scale(704, 352) > 1 && scale(176, 352) < 1) {
		t.Fatal("scale direction wrong")
	}
}

// TestFrontChargesOnlyBuiltStructures pins that the instruction-supply
// subsystem prices only the structures a run builds: with the timed L1I on
// but FDIP and shadow decoding off, the FTQ and shadow-BTB sizes a frontend
// configuration carries must cost nothing, so energy and area equal the
// frontend-off machine's for the same statistics.
func TestFrontChargesOnlyBuiltStructures(t *testing.T) {
	st := sampleStats()
	off := baseParams()
	timing := baseParams()
	timing.FTQBytes, timing.ShadowBTBBytes = 32*8, 1024*16
	a, b := Compute(off, st), Compute(timing, st)
	if a.TotalPJ != b.TotalPJ || a.AreaRel != b.AreaRel {
		t.Fatalf("timing-only frontend: %.6e pJ area %.6f, want the frontend-off %.6e pJ area %.6f",
			b.TotalPJ, b.AreaRel, a.TotalPJ, a.AreaRel)
	}

	fdip, shadow := timing, timing
	fdip.FDIP = true
	shadow.ShadowBTB = true
	for _, p := range []Params{fdip, shadow} {
		if r := Compute(p, st); r.AreaRel <= a.AreaRel || r.TotalPJ <= a.TotalPJ {
			t.Fatalf("FDIP=%v ShadowBTB=%v: area %.6f energy %.6e not above the frontend-off machine",
				p.FDIP, p.ShadowBTB, r.AreaRel, r.TotalPJ)
		}
	}
}
