// Package emu provides the functional emulator: it executes programs
// architecturally and serves as the timing model's oracle for correct-path
// dynamic uops (addresses, values, branch outcomes).
package emu

import (
	"maps"
	"math/bits"
	"sync/atomic"

	"cdf/internal/prog"
)

// Memory is sparse 64-bit-word-addressable data memory. Workload kernels
// use 8-byte-aligned accesses exclusively, so an address names the word
// addr>>3. The timing model never reads values from Memory; only the
// emulator does.
//
// Besides explicit writes, Memory supports procedural regions: address
// ranges whose initial contents are computed by a function. Workloads use
// them to give kernels multi-gigabyte synthetic footprints (pointer graphs,
// random index arrays) without materializing the data. Explicit writes
// overlay region contents.
//
// Explicit writes live in pages of pageWords aligned words. A page is a
// single []uint64 allocation (see page): a header, the written-word bitmap
// with its all-zero words left out, and the written values packed in word
// order. It costs 8 bytes per word written into it plus 8 per 64-word
// stretch it touches plus 8, so scattered writers pay for what they write,
// not for whole pages. Pages are found through a map from dir number to a
// dir, which holds dirPages aligned pages. A dir costs about 400 bytes per
// 64 KiB of address space written into, and it keeps the map small (one
// entry per dir), so finding, adding and cloning entries stays cheap for a
// widely scattered writer.
//
// Dirs and pages are shared copy-on-write between a memory and its clones.
// Each carries the id of the memory that may write it in place; Clone gives
// the memory and its clone fresh ids, so neither owns anything that existed
// at the call. The first write into a shared dir copies the dir (its page
// slots, not the pages), and the first write to a shared page copies the
// page. A shared dir or page never changes, so any number of memories may
// read it.
type Memory struct {
	dirs    map[uint64]*dir
	id      uint64 // owner tag of the dirs and pages this memory may write in place
	words   int    // distinct words explicitly written
	regions []Region
}

// A dir holds the pages of one aligned run of dirPages pages (nil where
// nothing is written) and the id of the memory that owns it.
type dir struct {
	owner uint64
	pages [dirPages]page
}

// A page holds the written words of one aligned run of pageWords words.
// page[0] is the header: the owning memory's id above the low 8 bits,
// which mark the 64-word stretches holding at least one written word. For
// each marked stretch, in order, one bitmap word follows that marks its
// written words. The values of the written words come last, packed in word
// order, so a value's position is found by counting the written words
// below it. A fully written page has every bitmap word, and its values sit
// at pageHeader+offset.
type page []uint64

const (
	pageShift   = 9 // log2 of the words in a page
	pageWords   = 1 << pageShift
	bitmapWords = pageWords / 64
	pageHeader  = 1 + bitmapWords        // header + bitmap of a full page
	fullPage    = pageHeader + pageWords // length of a fully written page
	ownerShift  = bitmapWords            // the owner id sits above the stretch marks
	dirShift    = 4                      // log2 of the pages in a dir
	dirPages    = 1 << dirShift
)

// memIDs hands out owner ids. Ids are never reused, so a dir or page tagged
// with one can only be written in place by the memory holding that id.
var memIDs atomic.Uint64

// Region is a procedurally-initialized address range [Lo, Hi).
type Region struct {
	Lo, Hi uint64
	Fn     func(addr uint64) int64
}

// NewMemory returns an empty memory; unwritten words read as zero.
func NewMemory() *Memory {
	return &Memory{dirs: make(map[uint64]*dir), id: memIDs.Add(1)}
}

// AddRegion registers a procedural region. Later regions win on overlap.
func (m *Memory) AddRegion(lo, hi uint64, fn func(addr uint64) int64) {
	m.regions = append(m.regions, Region{Lo: lo, Hi: hi, Fn: fn})
}

// Read64 returns the 64-bit word at addr (aligned down to 8 bytes).
func (m *Memory) Read64(addr uint64) int64 {
	w := addr >> 3
	if d, ok := m.dirs[w>>(pageShift+dirShift)]; ok {
		if p := d.pages[w>>pageShift&(dirPages-1)]; p != nil {
			if v, ok := p.read(w & (pageWords - 1)); ok {
				return v
			}
		}
	}
	a := addr &^ 7
	for i := len(m.regions) - 1; i >= 0; i-- {
		r := &m.regions[i]
		if a >= r.Lo && a < r.Hi {
			return r.Fn(a)
		}
	}
	return 0
}

// Write64 stores v at addr (aligned down to 8 bytes).
func (m *Memory) Write64(addr uint64, v int64) {
	w := addr >> 3
	dk, pk, off := w>>(pageShift+dirShift), w>>pageShift&(dirPages-1), w&(pageWords-1)
	d := m.dirs[dk]
	if d == nil || d.owner != m.id {
		// A new dir, or a private copy of a shared one's page slots.
		c := new(dir)
		if d != nil {
			*c = *d
		}
		c.owner = m.id
		d = c
		m.dirs[dk] = d
	}
	p := d.pages[pk]
	if p == nil {
		p = make(page, 1, 3)
		p[0] = m.id << ownerShift
	}
	b, ok := p.word(off)
	i := p.value(off, b)
	owned := p[0]>>ownerShift == m.id
	if ok && owned {
		p[i] = uint64(v)
		return
	}
	n := len(p)
	mark := uint64(1) << (off / 64)
	if !ok {
		n++ // the value
		if p[0]&mark == 0 {
			n++ // the stretch's bitmap word
		}
	}
	if !owned || n > cap(p) {
		p = p.own(m.id, n)
	}
	if !ok {
		old := len(p)
		p = p[:n]
		if p[0]&mark == 0 {
			// Open the stretch's bitmap word at b; every value moves up one.
			copy(p[b+1:], p[b:old])
			p[b] = 0
			p[0] |= mark
			i++
			old++
		}
		copy(p[i+1:], p[i:old])
		p[b] |= 1 << (off % 64)
		m.words++
	}
	p[i] = uint64(v)
	d.pages[pk] = p
}

// read returns word off of p and whether it is written. It is kept out of
// Read64's body so that reads missing every page stay cheap.
func (p page) read(off uint64) (int64, bool) {
	bm, ok := p.word(off)
	if !ok {
		return 0, false
	}
	return int64(p[p.value(off, bm)]), true
}

// word returns the position in p of the bitmap word for word off's
// stretch (where it goes, if the stretch holds no write yet) and whether
// word off is written.
func (p page) word(off uint64) (bm int, ok bool) {
	if len(p) == fullPage {
		return 1 + int(off/64), true
	}
	marks := p[0] & (1<<bitmapWords - 1)
	bm = 1 + bits.OnesCount64(marks&(1<<(off/64)-1))
	return bm, marks&(1<<(off/64)) != 0 && p[bm]&(1<<(off%64)) != 0
}

// value returns the position in p of word off's value, or where it goes if
// the word is unwritten (not yet counting a bitmap word that has to be
// opened for it); bm is word's result.
func (p page) value(off uint64, bm int) int {
	if len(p) == fullPage {
		return pageHeader + int(off)
	}
	marks := p[0] & (1<<bitmapWords - 1)
	i := 1 + bits.OnesCount64(marks)
	for _, b := range p[1:bm] {
		i += bits.OnesCount64(b)
	}
	if marks&(1<<(off/64)) != 0 {
		i += bits.OnesCount64(p[bm] & (1<<(off%64) - 1))
	}
	return i
}

// own returns a copy of p owned by id, with room for n words; a page that
// has to grow gets half again its capacity, so filling one takes
// logarithmically many copies.
func (p page) own(id uint64, n int) page {
	c := n
	if n > cap(p) {
		c = min(max(n, cap(p)+cap(p)/2), fullPage)
	}
	q := make(page, len(p), c)
	copy(q, p)
	q[0] = id<<ownerShift | p[0]&(1<<ownerShift-1)
	return q
}

// Footprint returns the number of distinct words explicitly written.
func (m *Memory) Footprint() int { return m.words }

// Clone returns an independent copy of m in O(pages): it copies the map of
// dirs (one entry per dirPages pages), not the pages or the written words,
// and shares the procedural regions (their functions are pure). Afterwards
// neither m nor the clone owns a dir or page that existed at the call, so
// each copies such a dir or page on its first write to it (copy-on-write).
// Clone therefore writes its receiver: like Write64, it must not run
// concurrently with any other use of m.
//
// The differential oracle clones a workload's memory before the timing
// core's lookahead emulator starts mutating it, so the reference emulator
// executes against untouched initial state.
func (m *Memory) Clone() *Memory {
	m.id = memIDs.Add(1)
	return &Memory{
		dirs:    maps.Clone(m.dirs),
		id:      memIDs.Add(1),
		words:   m.words,
		regions: append([]Region(nil), m.regions...),
	}
}

// BuildMemory materializes a serializable prog.MemSpec: every region reads
// as SplitMix64(addr ^ Salt). Repro artifacts reconstruct a failing case's
// data memory through this, so generated programs round-trip through disk
// with bit-identical initial contents.
func BuildMemory(spec prog.MemSpec) *Memory {
	m := NewMemory()
	for _, r := range spec {
		salt := r.Salt
		m.AddRegion(r.Lo, r.Hi, func(a uint64) int64 {
			return int64(SplitMix64(a ^ salt))
		})
	}
	return m
}

// SplitMix64 is a deterministic address/value hash for procedural regions.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
