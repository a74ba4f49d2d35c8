package emu

import (
	"maps"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"cdf/internal/isa"
	"cdf/internal/prog"
)

func r(i int) isa.Reg { return isa.Reg(i) }

func TestMemoryOverlayAndRegions(t *testing.T) {
	m := NewMemory()
	if m.Read64(0x1000) != 0 {
		t.Fatal("unwritten word should read 0")
	}
	m.Write64(0x1000, 42)
	if m.Read64(0x1000) != 42 {
		t.Fatal("write/read roundtrip failed")
	}
	// Procedural region.
	m.AddRegion(0x2000, 0x3000, func(addr uint64) int64 { return int64(addr) * 2 })
	if m.Read64(0x2008) != 0x2008*2 {
		t.Fatal("region read failed")
	}
	if m.Read64(0x3000) != 0 {
		t.Fatal("region must be half-open")
	}
	// Writes overlay regions.
	m.Write64(0x2008, -1)
	if m.Read64(0x2008) != -1 {
		t.Fatal("overlay write not visible")
	}
	// Later regions win on overlap.
	m.AddRegion(0x2000, 0x3000, func(addr uint64) int64 { return 7 })
	if m.Read64(0x2010) != 7 {
		t.Fatal("later region should win")
	}
	if m.Footprint() != 2 {
		t.Fatalf("footprint = %d, want 2", m.Footprint())
	}
}

func TestMemoryAlignment(t *testing.T) {
	m := NewMemory()
	m.Write64(0x1001, 9) // unaligned address aligns down
	if m.Read64(0x1000) != 9 || m.Read64(0x1007) != 9 {
		t.Fatal("addresses within a word must alias")
	}
}

func TestQuickMemoryRoundtrip(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, v int64) bool {
		m.Write64(addr, v)
		return m.Read64(addr) == v && m.Read64(addr&^7) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitMix64(t *testing.T) {
	if SplitMix64(1) == SplitMix64(2) {
		t.Fatal("distinct inputs should hash differently")
	}
	if SplitMix64(42) != SplitMix64(42) {
		t.Fatal("hash must be deterministic")
	}
	// Bits should look mixed: low bit balanced over a small sample.
	ones := 0
	for i := uint64(0); i < 1000; i++ {
		ones += int(SplitMix64(i) & 1)
	}
	if ones < 400 || ones > 600 {
		t.Fatalf("low-bit balance %d/1000 looks unmixed", ones)
	}
}

// buildSum constructs: sum = 0; for i = n; i != 0; i-- { sum += i }.
func buildSum(n int64) *prog.Program {
	b := prog.NewBuilder("sum")
	b.MovI(r(0), 0)
	b.MovI(r(1), n)
	b.MovI(r(2), 0)
	loop := b.Label()
	b.Add(r(2), r(2), r(1))
	b.SubI(r(1), r(1), 1)
	b.Bne(r(1), r(0), loop)
	b.Halt()
	return b.MustProgram()
}

func TestEmulatorLoopSum(t *testing.T) {
	e := New(buildSum(10), nil)
	n := e.Run(0)
	if !e.Halted() {
		t.Fatal("program should halt")
	}
	if e.Regs[2] != 55 {
		t.Fatalf("sum = %d, want 55", e.Regs[2])
	}
	// 3 init + 10 iterations x 3 + halt.
	if n != 3+30+1 {
		t.Fatalf("executed %d uops, want 34", n)
	}
}

func TestEmulatorMemoryOps(t *testing.T) {
	b := prog.NewBuilder("memops")
	b.MovI(r(1), 0x1000)
	b.MovI(r(2), 99)
	b.Store(r(1), 8, r(2))
	b.Load(r(3), r(1), 8)
	b.Halt()
	e := New(b.MustProgram(), nil)
	e.Run(0)
	if e.Regs[3] != 99 {
		t.Fatalf("loaded %d, want 99", e.Regs[3])
	}
	if e.Mem.Read64(0x1008) != 99 {
		t.Fatal("store not visible in memory")
	}
}

func TestEmulatorCallRet(t *testing.T) {
	b := prog.NewBuilder("callret")
	fn := b.ReserveLabel()
	b.MovI(r(1), 1)
	b.Call(fn)
	// Continuation.
	b.AddI(r(1), r(1), 100)
	b.Halt()
	b.Place(fn)
	b.AddI(r(1), r(1), 10)
	b.Ret()
	e := New(b.MustProgram(), nil)
	e.Run(0)
	if e.Regs[1] != 111 {
		t.Fatalf("r1 = %d, want 111 (call, fn, return, continuation)", e.Regs[1])
	}
}

func TestEmulatorTakenAndNotTakenPaths(t *testing.T) {
	build := func(v int64) *prog.Program {
		b := prog.NewBuilder("branchy")
		b.MovI(r(0), 0)
		b.MovI(r(1), v)
		skip := b.ReserveLabel()
		b.Beq(r(1), r(0), skip)
		b.MovI(r(2), 1) // not-taken path
		b.Place(skip)
		b.Halt()
		return b.MustProgram()
	}
	e := New(build(0), nil) // branch taken: skip the MovI
	e.Run(0)
	if e.Regs[2] != 0 {
		t.Fatal("taken branch should skip r2 write")
	}
	e = New(build(5), nil) // not taken: execute it
	e.Run(0)
	if e.Regs[2] != 1 {
		t.Fatal("not-taken branch should execute r2 write")
	}
}

func TestDynUopRecords(t *testing.T) {
	p := buildSum(2)
	e := New(p, nil)
	var d DynUop
	var seqs []uint64
	for e.Step(&d) {
		seqs = append(seqs, d.Seq)
		if d.U.Op.IsBranch() {
			// Branch records must carry direction and successor.
			if d.Taken && d.NextBlock < 0 && !d.Last {
				t.Fatal("taken branch without successor")
			}
		}
		if !d.Last && d.NextPC == 0 {
			t.Fatal("missing NextPC")
		}
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("seq %d at position %d", s, i)
		}
	}
	if !seqs_sorted(seqs) {
		t.Fatal("sequence numbers must increase")
	}
	if d.U.Op != isa.OpHalt || !d.Last {
		t.Fatal("final uop should be halt with Last set")
	}
	if e.Step(&d) {
		t.Fatal("Step after halt should return false")
	}
}

func seqs_sorted(s []uint64) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

func TestEmulatorRunBound(t *testing.T) {
	e := New(buildSum(1000), nil)
	if n := e.Run(10); n != 10 {
		t.Fatalf("Run(10) executed %d", n)
	}
	if e.Halted() {
		t.Fatal("should not have halted after 10 uops")
	}
}

// Property: the chase region from the workload helper shape is a
// permutation — following next pointers N times from any start stays inside
// the region and doesn't revisit too early (full-period LCG).
func TestChaseStylePermutation(t *testing.T) {
	const n = 1 << 10
	const a, c = 5, 12345
	seen := make(map[uint64]bool, n)
	x := uint64(0)
	for i := 0; i < n; i++ {
		if seen[x] {
			t.Fatalf("cycle after %d steps, want %d", i, n)
		}
		seen[x] = true
		x = (a*x + c) & (n - 1)
	}
	if x != 0 {
		t.Fatal("LCG should return to start after full period")
	}
}

// TestFullISASemantics executes one instance of every ALU opcode and checks
// the architectural results end to end.
func TestFullISASemantics(t *testing.T) {
	b := prog.NewBuilder("fullisa")
	b.MovI(r(1), 10)
	b.MovI(r(2), 3)
	b.Mov(r(3), r(1))
	b.Add(r(4), r(1), r(2))
	b.Sub(r(5), r(1), r(2))
	b.And(r(6), r(1), r(2))
	b.Or(r(7), r(1), r(2))
	b.Xor(r(8), r(1), r(2))
	b.Shl(r(9), r(1), r(2))
	b.Shr(r(10), r(1), r(2))
	b.Mul(r(11), r(1), r(2))
	b.Div(r(12), r(1), r(2))
	b.FAdd(r(13), r(1), r(2))
	b.FMul(r(14), r(1), r(2))
	b.FDiv(r(15), r(1), r(2))
	b.AddI(r(16), r(1), 5)
	b.SubI(r(17), r(1), 5)
	b.AndI(r(18), r(1), 6)
	b.OrI(r(19), r(1), 6)
	b.XorI(r(20), r(1), 6)
	b.ShlI(r(21), r(1), 2)
	b.ShrI(r(22), r(1), 2)
	b.Nop()
	b.Halt()
	e := New(b.MustProgram(), nil)
	e.Run(0)
	want := map[int]int64{
		3: 10, 4: 13, 5: 7, 6: 2, 7: 11, 8: 9, 9: 80, 10: 1,
		11: 30, 12: 3, 13: 13, 14: 30, 15: 3,
		16: 15, 17: 5, 18: 2, 19: 14, 20: 12, 21: 40, 22: 2,
	}
	for reg, v := range want {
		if got := e.Regs[reg]; got != v {
			t.Errorf("R%d = %d, want %d", reg, got, v)
		}
	}
}

// TestBranchSemantics drives every conditional branch opcode both ways.
func TestBranchSemantics(t *testing.T) {
	// For each op and operand pair, count a marker on the not-taken path.
	type c struct {
		set  func(b *prog.Builder, t int)
		a, b int64
		skip bool // branch taken -> marker skipped
	}
	cases := []c{
		{func(bb *prog.Builder, t int) { bb.Beq(r(1), r(2), t) }, 5, 5, true},
		{func(bb *prog.Builder, t int) { bb.Beq(r(1), r(2), t) }, 5, 6, false},
		{func(bb *prog.Builder, t int) { bb.Bne(r(1), r(2), t) }, 5, 6, true},
		{func(bb *prog.Builder, t int) { bb.Bne(r(1), r(2), t) }, 5, 5, false},
		{func(bb *prog.Builder, t int) { bb.Blt(r(1), r(2), t) }, -1, 0, true},
		{func(bb *prog.Builder, t int) { bb.Blt(r(1), r(2), t) }, 1, 0, false},
		{func(bb *prog.Builder, t int) { bb.Bge(r(1), r(2), t) }, 1, 0, true},
		{func(bb *prog.Builder, t int) { bb.Bge(r(1), r(2), t) }, -1, 0, false},
	}
	for i, tc := range cases {
		b := prog.NewBuilder("brsem")
		b.MovI(r(1), tc.a)
		b.MovI(r(2), tc.b)
		lbl := b.ReserveLabel()
		tc.set(b, lbl)
		b.MovI(r(3), 1) // not-taken marker
		b.Place(lbl)
		b.Halt()
		e := New(b.MustProgram(), nil)
		e.Run(0)
		gotSkipped := e.Regs[3] == 0
		if gotSkipped != tc.skip {
			t.Errorf("case %d: skipped=%v want %v", i, gotSkipped, tc.skip)
		}
	}
}

// TestCloneIndependence: a checkpoint clone must be a fully independent
// machine — stepping either side must not disturb the other's registers,
// memory, call stack, or uop stream. Sampled simulation clones the master
// emulator at every interval checkpoint.
func TestCloneIndependence(t *testing.T) {
	b := prog.NewBuilder("clonestore")
	loop := b.Label()
	b.AddI(r(2), r(2), 1)
	b.MovI(r(3), 0x1000)
	b.Store(r(3), 0, r(2))
	b.Load(r(4), r(3), 0)
	b.Bne(r(2), r(1), loop)
	b.Halt()
	p := b.MustProgram()

	mk := func() *Emulator {
		e := New(p, nil)
		e.Regs[1] = 1 << 40 // never exits on its own
		return e
	}
	e := mk()
	var d DynUop
	for i := 0; i < 123; i++ {
		if !e.Step(&d) {
			t.Fatal("unexpected halt")
		}
	}
	c := e.Clone()

	// The clone resumes exactly where the original stands: both must
	// produce the identical forward stream.
	var de, dc DynUop
	for i := 0; i < 500; i++ {
		oke, okc := e.Step(&de), c.Step(&dc)
		if oke != okc || de != dc {
			t.Fatalf("step %d after clone: original %+v (%v), clone %+v (%v)", i, de, oke, dc, okc)
		}
	}

	// Divergent writes stay private.
	c.Regs[2] = -7
	c.Mem.Write64(0x1000, 4242)
	if e.Regs[2] == -7 {
		t.Fatal("clone register write visible in original")
	}
	if e.Mem.Read64(0x1000) == 4242 {
		t.Fatal("clone memory write visible in original")
	}

	// A fresh machine stepped the same distance matches the clone's
	// positions (clone carries no hidden drift).
	f := mk()
	for i := 0; i < 623; i++ {
		f.Step(&d)
	}
	var df DynUop
	e2, f2 := e.Step(&de), f.Step(&df)
	if e2 != f2 || de != df {
		t.Fatalf("original after 623 steps %+v, fresh machine %+v", de, df)
	}
}

// TestCloneResetSeq: ResetSeq renumbers the stream from zero without
// touching any architectural state, so an interval core's commit sequence
// numbers and its oracle reference agree at stream position 0.
func TestCloneResetSeq(t *testing.T) {
	e := New(buildSum(1000), nil)
	var d DynUop
	for i := 0; i < 57; i++ {
		e.Step(&d)
	}
	c := e.Clone()
	c.ResetSeq()
	regs := c.Regs

	if !c.Step(&d) {
		t.Fatal("unexpected halt")
	}
	if d.Seq != 0 {
		t.Fatalf("first Seq after ResetSeq = %d, want 0", d.Seq)
	}
	c.Step(&d)
	if d.Seq != 1 {
		t.Fatalf("second Seq = %d, want 1", d.Seq)
	}
	// Architectural effects are unchanged: the original produces the same
	// uops with shifted numbering.
	c2 := e.Clone()
	c2.ResetSeq()
	var do, dr DynUop
	e.Step(&do)
	if do.Seq != 57 {
		t.Fatalf("original Seq = %d, want 57", do.Seq)
	}
	_ = regs
	d2 := do
	d2.Seq = 0
	c2.Step(&dr)
	if dr != d2 {
		t.Fatalf("ResetSeq changed architectural content: %+v vs %+v", dr, d2)
	}
}

// TestStepReusedDynUop: Step must fully overwrite a reused DynUop — stale
// fields from a previous, different uop must not leak through (the fast
// path writes fields directly rather than assigning a composite literal).
func TestStepReusedDynUop(t *testing.T) {
	e1 := New(buildSum(10), nil)
	e2 := New(buildSum(10), nil)
	var reused, fresh DynUop
	// Poison the reused record with a memory-op's fields first.
	reused.Addr, reused.Value, reused.DstValue = 0xDEAD, 123, 456
	reused.Taken, reused.Last = true, true
	for {
		var d DynUop
		ok2 := e2.Step(&d)
		ok1 := e1.Step(&reused)
		if ok1 != ok2 {
			t.Fatal("streams disagree on halt")
		}
		if !ok1 {
			break
		}
		if reused != d {
			t.Fatalf("reused record %+v differs from fresh record %+v", reused, d)
		}
		fresh = d
	}
	_ = fresh
}

// The copy-on-write tests and FuzzMemory work in a window of four pages
// whose pages 0-1 and 2-3 lie in different dirs. cowRegion is the
// procedural region they give their root memory: it covers page 1 and the
// first half of page 2, so explicit writes overlay it and straddle its
// edge.
const (
	pageBytes   = pageWords * 8
	cowBase     = 4*dirPages*pageBytes - 2*pageBytes // first byte of the window
	cowRegionLo = cowBase + pageBytes
	cowRegionHi = cowBase + 2*pageBytes + pageBytes/2
)

func cowRegionFn(addr uint64) int64 { return int64(addr) * 3 }

func cowRoot() *Memory {
	m := NewMemory()
	m.AddRegion(cowRegionLo, cowRegionHi, cowRegionFn)
	return m
}

// memOp is one step of a copy-on-write script over a pool of memories:
// pool[0] is cowRoot(), and each clone appends pool[from].Clone().
type memOp struct {
	kind byte // 'w' write, 'r' read (want v), 'c' clone, 'f' footprint (want v)
	m    int  // memory the op acts on (the source for 'c')
	addr uint64
	v    int64
}

func wr(m int, addr uint64, v int64) memOp { return memOp{'w', m, addr, v} }
func rd(m int, addr uint64, v int64) memOp { return memOp{'r', m, addr, v} }
func cl(from int) memOp                    { return memOp{kind: 'c', m: from} }
func fp(m int, n int) memOp                { return memOp{kind: 'f', m: m, v: int64(n)} }

// TestMemoryCloneCopyOnWrite pins the copy-on-write boundary: after Clone,
// writes on either side, to shared pages or new ones, stay private to the
// writer, whichever side wrote first and however deep the clone chain.
func TestMemoryCloneCopyOnWrite(t *testing.T) {
	p0 := uint64(cowBase)               // page 0 of the window: no region
	p1 := uint64(cowRegionLo)           // page 1: inside the region
	p2 := uint64(cowBase + 2*pageBytes) // page 2: first page of the next dir
	p3 := uint64(cowBase + 3*pageBytes) // page 3: untouched before the clone
	lastOfP0 := p1 - 8
	cases := []struct {
		name string
		ops  []memOp
	}{
		{"original write after clone, page the clone read", []memOp{
			wr(0, p0+8, 1), cl(0), rd(1, p0+8, 1),
			wr(0, p0+8, 2), wr(0, p0+16, 3),
			rd(1, p0+8, 1), rd(1, p0+16, 0), rd(0, p0+8, 2), rd(0, p0+16, 3),
		}},
		{"original write after clone, page the clone never read", []memOp{
			wr(0, p0, 1), wr(0, p3+8, 5), cl(0),
			wr(0, p3+8, 6), wr(0, p3+16, 7),
			rd(1, p3+8, 5), rd(1, p3+16, 0), rd(1, p0, 1),
		}},
		{"original write after clone to a page created after it", []memOp{
			cl(0), wr(0, p3, 9), rd(1, p3, 0), rd(0, p3, 9),
		}},
		{"clone of a clone: three memories written independently", []memOp{
			wr(0, p0+8, 10), cl(0), wr(1, p0+16, 11), cl(1),
			wr(0, p0+8, 20), wr(1, p0+8, 21), wr(2, p0+8, 22),
			wr(2, p0+16, 32), wr(0, p0+24, 40),
			rd(0, p0+8, 20), rd(1, p0+8, 21), rd(2, p0+8, 22),
			rd(0, p0+16, 0), rd(1, p0+16, 11), rd(2, p0+16, 32),
			rd(0, p0+24, 40), rd(1, p0+24, 0), rd(2, p0+24, 0),
		}},
		{"footprint after clone-then-write on both sides", []memOp{
			wr(0, p0, 1), wr(0, p0+8, 2), cl(0), fp(1, 2),
			wr(0, p0, 3), wr(0, p3, 4), fp(0, 3), fp(1, 2),
			wr(1, p0+8, 5), wr(1, p0+16, 6), wr(1, p1, 7), fp(1, 4), fp(0, 3),
		}},
		{"write over a region survives clone", []memOp{
			wr(0, p1+64, -1), cl(0),
			rd(1, p1+64, -1), rd(1, p1+72, cowRegionFn(p1+72)),
			wr(1, p1+64, -2), rd(0, p1+64, -1), rd(1, p1+64, -2),
			rd(0, p1+80, cowRegionFn(p1+80)),
		}},
		{"last word of one page and first word of the next", []memOp{
			wr(0, lastOfP0, 1), wr(0, p1, 2), cl(0),
			wr(1, lastOfP0, 3), wr(0, p1, 4),
			rd(0, lastOfP0, 1), rd(0, p1, 4), rd(1, lastOfP0, 3), rd(1, p1, 2),
			rd(0, p1+8, cowRegionFn(p1+8)), fp(0, 2), fp(1, 2),
		}},
		{"last word of one dir and first word of the next", []memOp{
			wr(0, p2-8, 1), wr(0, p2, 2), cl(0), cl(1),
			wr(1, p2-8, 3), wr(2, p2, 4), wr(0, p2+8, 5),
			rd(0, p2-8, 1), rd(0, p2, 2), rd(0, p2+8, 5),
			rd(1, p2-8, 3), rd(1, p2, 2), rd(1, p2+8, cowRegionFn(p2+8)),
			rd(2, p2-8, 1), rd(2, p2, 4), rd(2, p2+8, cowRegionFn(p2+8)),
			fp(0, 3), fp(1, 2), fp(2, 2),
		}},
		{"unaligned addresses at a page edge", []memOp{
			wr(0, lastOfP0+7, 1), wr(0, p1+5, 2), cl(0),
			rd(1, lastOfP0, 1), rd(1, lastOfP0+3, 1), rd(1, p1, 2), rd(1, p1+7, 2),
			wr(1, p1+1, 3), rd(0, p1+6, 2), rd(1, p1+2, 3), fp(1, 2),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool := []*Memory{cowRoot()}
			for i, op := range tc.ops {
				m := pool[op.m]
				switch op.kind {
				case 'w':
					m.Write64(op.addr, op.v)
				case 'r':
					if got := m.Read64(op.addr); got != op.v {
						t.Fatalf("op %d: memory %d Read64(%#x) = %d, want %d", i, op.m, op.addr, got, op.v)
					}
				case 'c':
					pool = append(pool, m.Clone())
				case 'f':
					if got := m.Footprint(); got != int(op.v) {
						t.Fatalf("op %d: memory %d Footprint() = %d, want %d", i, op.m, got, op.v)
					}
				}
			}
		})
	}
}

// TestCloneConcurrentUse: once Clone returns, the memory and its clone may
// be used from different goroutines. They share dirs and pages, so this
// holds only because neither writes a shared one in place; run under -race.
func TestCloneConcurrentUse(t *testing.T) {
	m := cowRoot()
	for a := uint64(cowBase); a < cowBase+4*pageBytes; a += 16 {
		m.Write64(a, int64(a))
	}
	c := m.Clone()
	var wg sync.WaitGroup
	for k, mem := range []*Memory{m, c} {
		wg.Add(1)
		go func(k int, mem *Memory) {
			defer wg.Done()
			for a := uint64(cowBase); a < cowBase+4*pageBytes; a += 8 {
				if got := mem.Read64(a); a%16 == 0 && got != int64(a) {
					t.Errorf("memory %d Read64(%#x) = %d before its own write", k, a, got)
					return
				}
				mem.Write64(a, int64(a)+int64(k+1)<<40)
			}
		}(k, mem)
	}
	wg.Wait()
	for k, mem := range []*Memory{m, c} {
		for a := uint64(cowBase); a < cowBase+4*pageBytes; a += 8 {
			if got, want := mem.Read64(a), int64(a)+int64(k+1)<<40; got != want {
				t.Fatalf("memory %d Read64(%#x) = %d, want %d", k, a, got, want)
			}
		}
	}
}

// FuzzMemory runs random Write64/Read64/Clone/Footprint sequences over a
// pool of up to four live memories and checks each against a plain map
// model of that memory. Every op is four bytes: a kind (low two bits) with
// a byte offset for unaligned addresses (next three bits), a memory
// selector, and a 16-bit word index into a four-page window whose pages 1
// and 2 the procedural region partly covers.
func FuzzMemory(f *testing.F) {
	op := func(kind, unaligned, mem byte, word uint16) []byte {
		return []byte{kind | unaligned<<2, mem, byte(word), byte(word >> 8)}
	}
	const (
		w, r, c, n = 0, 1, 2, 3
	)
	// Page edge: the last word of page 0 and the first of page 1, written
	// unaligned, cloned, then rewritten on both sides.
	f.Add(slices.Concat(
		op(w, 7, 0, pageWords-1), op(w, 3, 0, pageWords), op(c, 0, 0, 0),
		op(w, 0, 1, pageWords-1), op(w, 1, 0, pageWords),
		op(r, 0, 0, pageWords-1), op(r, 5, 1, pageWords), op(n, 0, 0, 0), op(n, 0, 1, 0)))
	// Clone of a clone: three memories written independently.
	f.Add(slices.Concat(
		op(w, 0, 0, 10), op(c, 0, 0, 0), op(w, 0, 1, 11), op(c, 0, 1, 0),
		op(w, 0, 0, 10), op(w, 0, 1, 10), op(w, 0, 2, 10), op(w, 0, 2, 11),
		op(r, 0, 0, 10), op(r, 0, 1, 10), op(r, 0, 2, 10), op(r, 0, 0, 11), op(r, 0, 2, 11)))
	// A page written full across a clone, then overwritten from the clone.
	var full []byte
	for i := uint16(0); i < pageWords; i++ {
		full = append(full, op(w, 0, 0, 2*pageWords+i*5%pageWords)...)
		if i == 300 {
			full = append(full, op(c, 0, 0, 0)...)
		}
	}
	f.Add(append(full, op(w, 0, 1, 2*pageWords+7)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		pool := []*Memory{cowRoot()}
		models := []map[uint64]int64{{}}
		for i := 0; i+4 <= len(data); i += 4 {
			kind, sel := data[i]&3, int(data[i+1])
			word := uint64(data[i+2]) | uint64(data[i+3])<<8
			addr := cowBase + word%(4*pageWords)*8 + uint64(data[i]>>2&7)
			k := sel % len(pool)
			m, model := pool[k], models[k]
			switch kind {
			case w:
				v := int64(i)<<8 ^ int64(word)
				m.Write64(addr, v)
				model[addr>>3] = v
			case r:
				want, ok := model[addr>>3]
				if !ok && addr&^7 >= cowRegionLo && addr&^7 < cowRegionHi {
					want = cowRegionFn(addr &^ 7)
				}
				if got := m.Read64(addr); got != want {
					t.Fatalf("op %d: memory %d Read64(%#x) = %d, want %d", i/4, k, addr, got, want)
				}
			case c:
				// Clone into a new slot, or over the slot the selector's
				// high bits name once the pool is full.
				cm, cmodel := m.Clone(), maps.Clone(model)
				if len(pool) < 4 {
					pool, models = append(pool, cm), append(models, cmodel)
				} else {
					d := sel / 4 % 4
					pool[d], models[d] = cm, cmodel
				}
			case n:
				if got := m.Footprint(); got != len(model) {
					t.Fatalf("op %d: memory %d Footprint() = %d, want %d", i/4, k, got, len(model))
				}
			}
		}
		// Every memory still matches its model on every word any of them
		// wrote: a write that leaked across a clone shows up here.
		for k, m := range pool {
			for _, model := range models {
				for word := range model {
					want, ok := models[k][word]
					if a := word << 3; !ok && a >= cowRegionLo && a < cowRegionHi {
						want = cowRegionFn(a)
					}
					if got := m.Read64(word << 3); got != want {
						t.Fatalf("final: memory %d Read64(%#x) = %d, want %d", k, word<<3, got, want)
					}
				}
			}
			if m.Footprint() != len(models[k]) {
				t.Fatalf("final: memory %d Footprint() = %d, want %d", k, m.Footprint(), len(models[k]))
			}
		}
	})
}
