// Package stats collects simulation counters: pipeline activity, memory
// hierarchy traffic, branch behaviour, MLP, ROB-occupancy samples (Fig. 1),
// and CDF/PRE mechanism activity. Every figure in the evaluation is computed
// from these counters.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Stats holds all counters for one simulation run.
type Stats struct {
	// Pipeline.
	Cycles          uint64
	RetiredUops     uint64
	RetiredLoads    uint64
	RetiredStores   uint64
	RetiredBranches uint64
	FetchedUops     uint64
	FlushedUops     uint64

	// Branches.
	CondBranches      uint64
	BranchMispredicts uint64
	BTBMisses         uint64

	FetchStallCycles uint64

	// Frontend instruction supply (DESIGN.md §13). The three stall-split
	// counters attribute each FetchStallCycles tick to its cause; the rest
	// track the FDIP prefetcher and shadow-branch decoding.
	FetchStallIMissCycles    uint64
	FetchStallBTBCycles      uint64
	FetchStallRedirectCycles uint64
	FTQOccupancySum          uint64 // FTQ entries summed over cycles (FDIP runs only)
	L1IPrefetches            uint64
	L1IPrefetchUseful        uint64
	L1IPrefetchLate          uint64
	ShadowBTBInserts         uint64
	ShadowBTBHits            uint64

	// Stalls (cycles during which rename could not allocate).
	ROBFullCycles uint64
	RSFullCycles  uint64
	LQFullCycles  uint64
	SQFullCycles  uint64
	// FullWindowStallCycles counts cycles with the ROB full and the head
	// uop waiting on memory — the paper's "full window stall".
	FullWindowStallCycles uint64

	// Memory hierarchy.
	L1IHits, L1IMisses          uint64
	L1DHits, L1DMisses          uint64
	LLCHits, LLCMisses          uint64
	DRAMReads, DRAMWrites       uint64
	WritebacksL1, WritebacksLLC uint64
	PrefetchesIssued            uint64
	PrefetchesUseful            uint64
	PrefetchesLate              uint64
	WrongPathLoads              uint64

	// MLP: sum of outstanding LLC-missing demand loads over cycles where at
	// least one is outstanding.
	mlpSum    uint64
	mlpCycles uint64

	// Fig. 1: ROB occupancy sampled during full-window stalls.
	StallROBCritical    uint64
	StallROBNonCritical uint64
	StallROBSamples     uint64

	// CDF mechanism.
	CDFModeCycles        uint64
	CDFEntries           uint64
	CDFExits             uint64
	CriticalUopsFetched  uint64
	CriticalUopsRetired  uint64
	TracesInstalled      uint64
	FillBufferWalks      uint64
	WalksRejectedSparse  uint64
	WalksRejectedDense   uint64
	DependenceViolations uint64
	MemOrderViolations   uint64
	CUCHits, CUCMisses   uint64
	PartitionGrows       uint64
	PartitionShrinks     uint64

	// PRE mechanism.
	RunaheadIntervals  uint64
	RunaheadCycles     uint64
	RunaheadUops       uint64
	RunaheadPrefetches uint64
}

// Merge adds every counter of o into s. Sampled simulation merges each
// measured interval's Stats into the run total; TestMergeCoversAllFields
// keeps this list in sync with the struct.
func (s *Stats) Merge(o *Stats) {
	s.Cycles += o.Cycles
	s.RetiredUops += o.RetiredUops
	s.RetiredLoads += o.RetiredLoads
	s.RetiredStores += o.RetiredStores
	s.RetiredBranches += o.RetiredBranches
	s.FetchedUops += o.FetchedUops
	s.FlushedUops += o.FlushedUops
	s.CondBranches += o.CondBranches
	s.BranchMispredicts += o.BranchMispredicts
	s.BTBMisses += o.BTBMisses
	s.FetchStallCycles += o.FetchStallCycles
	s.FetchStallIMissCycles += o.FetchStallIMissCycles
	s.FetchStallBTBCycles += o.FetchStallBTBCycles
	s.FetchStallRedirectCycles += o.FetchStallRedirectCycles
	s.FTQOccupancySum += o.FTQOccupancySum
	s.L1IPrefetches += o.L1IPrefetches
	s.L1IPrefetchUseful += o.L1IPrefetchUseful
	s.L1IPrefetchLate += o.L1IPrefetchLate
	s.ShadowBTBInserts += o.ShadowBTBInserts
	s.ShadowBTBHits += o.ShadowBTBHits
	s.ROBFullCycles += o.ROBFullCycles
	s.RSFullCycles += o.RSFullCycles
	s.LQFullCycles += o.LQFullCycles
	s.SQFullCycles += o.SQFullCycles
	s.FullWindowStallCycles += o.FullWindowStallCycles
	s.L1IHits += o.L1IHits
	s.L1IMisses += o.L1IMisses
	s.L1DHits += o.L1DHits
	s.L1DMisses += o.L1DMisses
	s.LLCHits += o.LLCHits
	s.LLCMisses += o.LLCMisses
	s.DRAMReads += o.DRAMReads
	s.DRAMWrites += o.DRAMWrites
	s.WritebacksL1 += o.WritebacksL1
	s.WritebacksLLC += o.WritebacksLLC
	s.PrefetchesIssued += o.PrefetchesIssued
	s.PrefetchesUseful += o.PrefetchesUseful
	s.PrefetchesLate += o.PrefetchesLate
	s.WrongPathLoads += o.WrongPathLoads
	s.mlpSum += o.mlpSum
	s.mlpCycles += o.mlpCycles
	s.StallROBCritical += o.StallROBCritical
	s.StallROBNonCritical += o.StallROBNonCritical
	s.StallROBSamples += o.StallROBSamples
	s.CDFModeCycles += o.CDFModeCycles
	s.CDFEntries += o.CDFEntries
	s.CDFExits += o.CDFExits
	s.CriticalUopsFetched += o.CriticalUopsFetched
	s.CriticalUopsRetired += o.CriticalUopsRetired
	s.TracesInstalled += o.TracesInstalled
	s.FillBufferWalks += o.FillBufferWalks
	s.WalksRejectedSparse += o.WalksRejectedSparse
	s.WalksRejectedDense += o.WalksRejectedDense
	s.DependenceViolations += o.DependenceViolations
	s.MemOrderViolations += o.MemOrderViolations
	s.CUCHits += o.CUCHits
	s.CUCMisses += o.CUCMisses
	s.PartitionGrows += o.PartitionGrows
	s.PartitionShrinks += o.PartitionShrinks
	s.RunaheadIntervals += o.RunaheadIntervals
	s.RunaheadCycles += o.RunaheadCycles
	s.RunaheadUops += o.RunaheadUops
	s.RunaheadPrefetches += o.RunaheadPrefetches
}

// TickMLP records one cycle with n outstanding LLC-missing demand loads.
func (s *Stats) TickMLP(n int) {
	if n > 0 {
		s.mlpSum += uint64(n)
		s.mlpCycles++
	}
}

// MLP returns the average number of outstanding LLC misses over cycles with
// at least one outstanding (the paper's MLP metric).
func (s *Stats) MLP() float64 {
	if s.mlpCycles == 0 {
		return 0
	}
	return float64(s.mlpSum) / float64(s.mlpCycles)
}

// SampleStallROB records a Fig.-1 style sample: how many ROB entries hold
// critical vs non-critical uops during a full-window stall cycle.
func (s *Stats) SampleStallROB(critical, nonCritical int) {
	s.StallROBCritical += uint64(critical)
	s.StallROBNonCritical += uint64(nonCritical)
	s.StallROBSamples++
}

// StallROBCriticalFrac returns the average fraction of ROB entries holding
// critical-path uops during full-window stalls.
func (s *Stats) StallROBCriticalFrac() float64 {
	tot := s.StallROBCritical + s.StallROBNonCritical
	if tot == 0 {
		return 0
	}
	return float64(s.StallROBCritical) / float64(tot)
}

// IPC returns retired uops per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.RetiredUops) / float64(s.Cycles)
}

// BranchMPKI returns branch mispredictions per kilo-instruction.
func (s *Stats) BranchMPKI() float64 {
	if s.RetiredUops == 0 {
		return 0
	}
	return 1000 * float64(s.BranchMispredicts) / float64(s.RetiredUops)
}

// LLCMPKI returns LLC misses per kilo-instruction.
func (s *Stats) LLCMPKI() float64 {
	if s.RetiredUops == 0 {
		return 0
	}
	return 1000 * float64(s.LLCMisses) / float64(s.RetiredUops)
}

// L1IMPKI returns L1I misses per kilo-instruction (the frontend-boundness
// metric the instruction-supply experiments report).
func (s *Stats) L1IMPKI() float64 {
	if s.RetiredUops == 0 {
		return 0
	}
	return 1000 * float64(s.L1IMisses) / float64(s.RetiredUops)
}

// FTQOccupancy returns the average fetch-target-queue occupancy over the
// run (zero without FDIP, which is the only FTQ user).
func (s *Stats) FTQOccupancy() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.FTQOccupancySum) / float64(s.Cycles)
}

// MemTraffic returns total DRAM transfers (reads + writes), the paper's
// memory traffic metric (Fig. 15).
func (s *Stats) MemTraffic() uint64 { return s.DRAMReads + s.DRAMWrites }

// Table returns the counters as sorted name/value rows for reports.
func (s *Stats) Table() []Row {
	rows := []Row{
		{"cycles", float64(s.Cycles)},
		{"retired_uops", float64(s.RetiredUops)},
		{"ipc", s.IPC()},
		{"retired_loads", float64(s.RetiredLoads)},
		{"retired_stores", float64(s.RetiredStores)},
		{"retired_branches", float64(s.RetiredBranches)},
		{"branch_mpki", s.BranchMPKI()},
		{"branch_mispredicts", float64(s.BranchMispredicts)},
		{"btb_misses", float64(s.BTBMisses)},
		{"l1i_misses", float64(s.L1IMisses)},
		{"l1i_mpki", s.L1IMPKI()},
		{"fetch_stall_cycles", float64(s.FetchStallCycles)},
		{"fetch_stall_imiss", float64(s.FetchStallIMissCycles)},
		{"fetch_stall_btb", float64(s.FetchStallBTBCycles)},
		{"fetch_stall_redirect", float64(s.FetchStallRedirectCycles)},
		{"ftq_avg_occupancy", s.FTQOccupancy()},
		{"l1i_prefetches", float64(s.L1IPrefetches)},
		{"l1i_prefetch_useful", float64(s.L1IPrefetchUseful)},
		{"l1i_prefetch_late", float64(s.L1IPrefetchLate)},
		{"shadow_btb_inserts", float64(s.ShadowBTBInserts)},
		{"shadow_btb_hits", float64(s.ShadowBTBHits)},
		{"l1d_misses", float64(s.L1DMisses)},
		{"llc_misses", float64(s.LLCMisses)},
		{"llc_mpki", s.LLCMPKI()},
		{"dram_reads", float64(s.DRAMReads)},
		{"dram_writes", float64(s.DRAMWrites)},
		{"mem_traffic", float64(s.MemTraffic())},
		{"mlp", s.MLP()},
		{"full_window_stall_cycles", float64(s.FullWindowStallCycles)},
		{"rob_full_cycles", float64(s.ROBFullCycles)},
		{"prefetches_issued", float64(s.PrefetchesIssued)},
		{"prefetches_useful", float64(s.PrefetchesUseful)},
		{"wrong_path_loads", float64(s.WrongPathLoads)},
		{"cdf_mode_cycles", float64(s.CDFModeCycles)},
		{"cdf_entries", float64(s.CDFEntries)},
		{"critical_uops_fetched", float64(s.CriticalUopsFetched)},
		{"traces_installed", float64(s.TracesInstalled)},
		{"dependence_violations", float64(s.DependenceViolations)},
		{"runahead_intervals", float64(s.RunaheadIntervals)},
		{"runahead_prefetches", float64(s.RunaheadPrefetches)},
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// Row is one name/value pair in a stats report.
type Row struct {
	Name  string
	Value float64
}

// String renders the full counter table.
func (s *Stats) String() string {
	var sb strings.Builder
	for _, r := range s.Table() {
		fmt.Fprintf(&sb, "%-28s %14.3f\n", r.Name, r.Value)
	}
	return sb.String()
}

// CycleDelta is the per-cycle statistics change during a provably idle
// stretch: the only counters a stalled cycle may touch. The event-driven
// idle skip (DESIGN.md §9) observes one quiet cycle, captures its delta,
// and replays it k times via AddDelta instead of simulating k cycles.
type CycleDelta struct {
	Cycles                   uint64
	CDFModeCycles            uint64
	FetchStallCycles         uint64
	FetchStallIMissCycles    uint64
	FetchStallBTBCycles      uint64
	FetchStallRedirectCycles uint64
	FTQOccupancySum          uint64
	ROBFullCycles            uint64
	RSFullCycles             uint64
	LQFullCycles             uint64
	SQFullCycles             uint64
	FullWindowStallCycles    uint64
	StallROBCritical         uint64
	StallROBNonCritical      uint64
	StallROBSamples          uint64
	MLPSum                   uint64
	MLPCycles                uint64
}

// DeltaSince returns the change from prev to s, provided that change is
// confined to the per-idle-cycle counters above. Any movement in another
// counter means the cycle did work and returns ok=false.
func (s *Stats) DeltaSince(prev *Stats) (d CycleDelta, ok bool) {
	d = CycleDelta{
		Cycles:                   s.Cycles - prev.Cycles,
		CDFModeCycles:            s.CDFModeCycles - prev.CDFModeCycles,
		FetchStallCycles:         s.FetchStallCycles - prev.FetchStallCycles,
		FetchStallIMissCycles:    s.FetchStallIMissCycles - prev.FetchStallIMissCycles,
		FetchStallBTBCycles:      s.FetchStallBTBCycles - prev.FetchStallBTBCycles,
		FetchStallRedirectCycles: s.FetchStallRedirectCycles - prev.FetchStallRedirectCycles,
		FTQOccupancySum:          s.FTQOccupancySum - prev.FTQOccupancySum,
		ROBFullCycles:            s.ROBFullCycles - prev.ROBFullCycles,
		RSFullCycles:             s.RSFullCycles - prev.RSFullCycles,
		LQFullCycles:             s.LQFullCycles - prev.LQFullCycles,
		SQFullCycles:             s.SQFullCycles - prev.SQFullCycles,
		FullWindowStallCycles:    s.FullWindowStallCycles - prev.FullWindowStallCycles,
		StallROBCritical:         s.StallROBCritical - prev.StallROBCritical,
		StallROBNonCritical:      s.StallROBNonCritical - prev.StallROBNonCritical,
		StallROBSamples:          s.StallROBSamples - prev.StallROBSamples,
		MLPSum:                   s.mlpSum - prev.mlpSum,
		MLPCycles:                s.mlpCycles - prev.mlpCycles,
	}
	// Masked equality: overwrite the whitelisted fields of a copy of prev
	// with s's values; every other counter must already match (Stats is all
	// uint64, so struct equality is exact).
	masked := *prev
	masked.Cycles = s.Cycles
	masked.CDFModeCycles = s.CDFModeCycles
	masked.FetchStallCycles = s.FetchStallCycles
	masked.FetchStallIMissCycles = s.FetchStallIMissCycles
	masked.FetchStallBTBCycles = s.FetchStallBTBCycles
	masked.FetchStallRedirectCycles = s.FetchStallRedirectCycles
	masked.FTQOccupancySum = s.FTQOccupancySum
	masked.ROBFullCycles = s.ROBFullCycles
	masked.RSFullCycles = s.RSFullCycles
	masked.LQFullCycles = s.LQFullCycles
	masked.SQFullCycles = s.SQFullCycles
	masked.FullWindowStallCycles = s.FullWindowStallCycles
	masked.StallROBCritical = s.StallROBCritical
	masked.StallROBNonCritical = s.StallROBNonCritical
	masked.StallROBSamples = s.StallROBSamples
	masked.mlpSum = s.mlpSum
	masked.mlpCycles = s.mlpCycles
	return d, masked == *s
}

// AddDelta applies d scaled by k cycles.
func (s *Stats) AddDelta(d CycleDelta, k uint64) {
	s.Cycles += d.Cycles * k
	s.CDFModeCycles += d.CDFModeCycles * k
	s.FetchStallCycles += d.FetchStallCycles * k
	s.FetchStallIMissCycles += d.FetchStallIMissCycles * k
	s.FetchStallBTBCycles += d.FetchStallBTBCycles * k
	s.FetchStallRedirectCycles += d.FetchStallRedirectCycles * k
	s.FTQOccupancySum += d.FTQOccupancySum * k
	s.ROBFullCycles += d.ROBFullCycles * k
	s.RSFullCycles += d.RSFullCycles * k
	s.LQFullCycles += d.LQFullCycles * k
	s.SQFullCycles += d.SQFullCycles * k
	s.FullWindowStallCycles += d.FullWindowStallCycles * k
	s.StallROBCritical += d.StallROBCritical * k
	s.StallROBNonCritical += d.StallROBNonCritical * k
	s.StallROBSamples += d.StallROBSamples * k
	s.mlpSum += d.MLPSum * k
	s.mlpCycles += d.MLPCycles * k
}
