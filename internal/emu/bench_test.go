package emu_test

// BenchmarkMemoryClone is the per-layer figure for the checkpoint clone
// sampled simulation takes once per interval (DESIGN.md §12): it clones an
// emulator that has already run deep into a kernel, so the memory holds the
// written footprint a late checkpoint sees.
//
//	go test ./internal/emu -run '^$' -bench BenchmarkMemoryClone

import (
	"testing"

	"cdf/internal/emu"
	"cdf/internal/workload"
)

// cloneSink keeps each benchmarked clone live.
var cloneSink *emu.Emulator

func BenchmarkMemoryClone(b *testing.B) {
	for _, c := range []struct {
		kernel string
		depth  uint64
	}{
		// lbm streams stores: ~654k distinct words written by 10M uops,
		// packed into full pages.
		{"lbm", 10_000_000},
		// fotonik scatters its stores: ~40k words over ~30k pages.
		{"fotonik", 1_000_000},
	} {
		b.Run(c.kernel, func(b *testing.B) {
			w, err := workload.ByName(c.kernel)
			if err != nil {
				b.Fatal(err)
			}
			em := emu.New(w.Build())
			if n := em.Run(c.depth); n != c.depth {
				b.Fatalf("%s ended after %d uops", c.kernel, n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cloneSink = em.Clone()
			}
			b.ReportMetric(float64(em.Mem.Footprint()), "words")
		})
	}
}
