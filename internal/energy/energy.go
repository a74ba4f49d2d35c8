// Package energy implements the event-energy and area model standing in
// for McPAT + CACTI in the paper's methodology (§4.1). Each microarchitural
// structure gets a per-access energy that scales with its capacity
// (CACTI-like sqrt scaling for SRAM arrays) plus leakage proportional to
// area. Only *relative* energies are meaningful — the paper also reports
// energy and area relative to the baseline (Figs. 16, 17, §4.3) — so the
// absolute pJ values are order-of-magnitude estimates, documented here and
// in DESIGN.md.
package energy

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"cdf/internal/stats"
)

// Params describes the modelled machine's structure sizes.
type Params struct {
	Width   int
	ROBSize int
	RSSize  int
	LQSize  int
	SQSize  int
	PRFSize int

	L1ISizeBytes int
	L1DSizeBytes int
	LLCSizeBytes int

	// CDF structures (zero in a pure-baseline machine, but the paper's CDF
	// core always carries them).
	CDFEnabled   bool
	CUCBytes     int
	MaskBytes    int
	FillBufBytes int
	FIFOBytes    int // DBQ + CMQ

	// Instruction-supply subsystem (DESIGN.md §13). The timed L1I adds no
	// structure of its own: FDIP adds the FTQ and its walker, shadow-branch
	// decoding adds the predecoders and the shadow BTB, and each is charged
	// only when it is built.
	FDIP           bool
	FTQBytes       int
	ShadowBTB      bool
	ShadowBTBBytes int

	// FreqGHz converts leakage power into per-cycle energy.
	FreqGHz float64
}

// Reference sizes the per-access energies are calibrated at.
const (
	refROB = 352
	refRS  = 160
	refLQ  = 128
	refSQ  = 72
	refPRF = 416
)

// scale returns the CACTI-like sqrt capacity scaling factor.
func scale(size, ref int) float64 {
	if ref <= 0 || size <= 0 {
		return 1
	}
	return math.Sqrt(float64(size) / float64(ref))
}

// Per-access energies in pJ at the reference sizes (order-of-magnitude
// CACTI-class estimates for a ~10nm node).
const (
	pjFetchDecode = 8.0  // I-cache-adjacent fetch + decode per uop
	pjRename      = 4.0  // RAT read/write + free-list per uop
	pjROB         = 3.0  // allocate + retire per uop
	pjRS          = 6.0  // insert + wakeup + select per uop
	pjPRFOp       = 1.5  // per operand read/write
	pjLQ          = 2.5  // per load (insert + search share)
	pjSQ          = 3.0  // per store
	pjBP          = 8.0  // predictor lookup + update per cond branch
	pjL1          = 20.0 // per L1 access
	pjLLC         = 100.0
	pjDRAM        = 2000.0 // per line transfer

	// CDF structures.
	pjCUCRead    = 12.0
	pjCUCWrite   = 14.0
	pjMask       = 4.0
	pjCCT        = 1.0
	pjFIFO       = 1.0 // DBQ/CMQ push+pop
	pjFillInsert = 2.0
	pjCritRename = 4.0

	// Instruction-supply structures.
	pjShadowBTB = 2.0 // shadow BTB probe/insert (small tagged array)
)

// Area model, in relative units (a unit ~ 0.01 mm² class). Only ratios are
// reported.
func coreArea(p Params) float64 {
	a := 0.0
	a += 40 * scale(p.ROBSize, refROB) * scale(p.ROBSize, refROB) // ROB grows superlinearly
	a += 50 * scale(p.RSSize, refRS) * scale(p.RSSize, refRS)     // RS is CAM-heavy
	a += 25 * scale(p.LQSize, refLQ) * scale(p.LQSize, refLQ)
	a += 15 * scale(p.SQSize, refSQ) * scale(p.SQSize, refSQ)
	a += 30 * scale(p.PRFSize, refPRF) * scale(p.PRFSize, refPRF)
	a += 60.0                                            // execution units, bypass
	a += 35.0                                            // frontend, predictor
	a += float64(p.L1ISizeBytes+p.L1DSizeBytes) / 1024.0 // ~1 unit/KB SRAM
	a += float64(p.LLCSizeBytes) / 1024.0 * 0.6          // denser array
	return a
}

func cdfArea(p Params) float64 {
	if !p.CDFEnabled {
		return 0
	}
	a := 0.0
	a += float64(p.CUCBytes) / 1024.0 * 0.9 // trace cache (few ports)
	a += float64(p.MaskBytes) / 1024.0
	a += float64(p.FillBufBytes) / 1024.0 * 0.35 // single-ported FIFO
	a += float64(p.FIFOBytes) / 1024.0 * 0.5
	a += 5.0 // critical RAT, next-PC logic, rename replay logic
	return a
}

func frontArea(p Params) float64 {
	a := 0.0
	if p.FDIP {
		a += float64(p.FTQBytes) / 1024.0 * 0.5 // single-ported FIFO
		a += 1.0                                // walker next-line logic
	}
	if p.ShadowBTB {
		a += float64(p.ShadowBTBBytes) / 1024.0
		a += 1.0 // shadow predecoders
	}
	return a
}

// Item is one row of the energy breakdown.
type Item struct {
	Name string
	PJ   float64
}

// Report is a run's energy/area accounting.
type Report struct {
	Items       []Item
	TotalPJ     float64
	StaticPJ    float64
	AreaRel     float64 // area relative to the reference baseline core
	CDFAreaFrac float64
}

// leakage per area unit per cycle at FreqGHz, in pJ: calibrated so static
// energy is roughly a third of total on memory-bound runs.
const pjLeakPerAreaUnitPerCycle = 0.045

// Compute produces the energy report for a finished run.
func Compute(p Params, st *stats.Stats) Report {
	alloc := float64(st.RetiredUops + st.FlushedUops)
	loads := float64(st.L1DHits + st.L1DMisses)
	dyn := []Item{
		{"fetch+decode", pjFetchDecode * float64(st.FetchedUops)},
		{"rename", pjRename * alloc},
		{"rob", pjROB * alloc * scale(p.ROBSize, refROB)},
		{"rs", pjRS * alloc * scale(p.RSSize, refRS)},
		{"prf", pjPRFOp * 3 * alloc * scale(p.PRFSize, refPRF)},
		{"lq", pjLQ * loads * scale(p.LQSize, refLQ)},
		{"sq", pjSQ * float64(st.RetiredStores) * scale(p.SQSize, refSQ)},
		{"branch-predictor", pjBP * float64(st.CondBranches)},
		{"l1", pjL1 * (loads + float64(st.L1IHits+st.L1IMisses))},
		{"llc", pjLLC * float64(st.LLCHits+st.LLCMisses+st.PrefetchesIssued)},
		{"dram", pjDRAM * float64(st.DRAMReads+st.DRAMWrites)},
	}
	if p.CDFEnabled {
		dyn = append(dyn,
			Item{"cdf-cuc", pjCUCRead*float64(st.CriticalUopsFetched+st.CUCHits+st.CUCMisses) + pjCUCWrite*float64(st.TracesInstalled)},
			Item{"cdf-mask", pjMask * float64(st.FillBufferWalks*1024)},
			Item{"cdf-cct", pjCCT * float64(st.RetiredLoads+st.RetiredBranches)},
			Item{"cdf-fifos", pjFIFO * float64(st.CriticalUopsFetched*2)},
			Item{"cdf-fillbuf", pjFillInsert * float64(st.FillBufferWalks*1024) * 2},
			Item{"cdf-crit-rename", pjCritRename * float64(st.CriticalUopsFetched)},
			Item{"runahead", (pjRename + pjRS) * float64(st.RunaheadUops)},
		)
	}
	if p.FDIP {
		dyn = append(dyn,
			// FTQ push+pop per prefetch candidate and the prefetch's own
			// L1I fill access.
			Item{"front-ftq", pjFIFO * float64(st.L1IPrefetches*2)},
			Item{"front-l1i-prefetch", pjL1 * float64(st.L1IPrefetches)},
		)
	}
	if p.ShadowBTB {
		// Shadow-BTB traffic: inserts + backup probes.
		dyn = append(dyn, Item{"front-shadow-btb", pjShadowBTB * float64(st.ShadowBTBInserts+st.ShadowBTBHits)})
	}

	area := coreArea(p) + cdfArea(p) + frontArea(p)
	static := pjLeakPerAreaUnitPerCycle * area * float64(st.Cycles)
	dyn = append(dyn, Item{"static", static})

	total := 0.0
	for _, it := range dyn {
		total += it.PJ
	}
	sort.Slice(dyn, func(i, j int) bool { return dyn[i].PJ > dyn[j].PJ })

	refParams := p
	refParams.ROBSize, refParams.RSSize = refROB, refRS
	refParams.LQSize, refParams.SQSize, refParams.PRFSize = refLQ, refSQ, refPRF
	refParams.CDFEnabled = false
	refParams.FDIP, refParams.ShadowBTB = false, false
	return Report{
		Items:       dyn,
		TotalPJ:     total,
		StaticPJ:    static,
		AreaRel:     area / coreArea(refParams),
		CDFAreaFrac: cdfArea(p) / area,
	}
}

// String renders the breakdown.
func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "total energy: %.3e pJ (static %.1f%%), area %.3fx baseline, CDF area %.1f%%\n",
		r.TotalPJ, 100*r.StaticPJ/r.TotalPJ, r.AreaRel, 100*r.CDFAreaFrac)
	for _, it := range r.Items {
		fmt.Fprintf(&sb, "  %-18s %12.3e pJ (%5.1f%%)\n", it.Name, it.PJ, 100*it.PJ/r.TotalPJ)
	}
	return sb.String()
}
