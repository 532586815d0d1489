// Package mem models the physical memory of the simulated machine.
//
// Physical memory is an array of 4 KiB frames. Frame contents (512
// 64-bit words) are allocated lazily, so a simulated machine can expose
// many gigabytes of physical address space while only frames that are
// actually written — page tables, file data, device rings — consume host
// memory. Workload data pages that are merely touched never materialize.
//
// Two allocators are provided, mirroring the paper's memory-provisioning
// split: a free-list frame allocator used by kernels for page tables and
// kernel objects, and a contiguous segment allocator used by the CKI host
// kernel to delegate physical-address ranges to guest kernels (§3.3:
// "The host kernel provides each guest VM with some contiguous segments
// of hPA that are directly managed by the memory manager in the guest").
package mem

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/faults"
)

// Page geometry of the simulated machine (x86-64, 4-level paging).
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4096
	PageMask  = PageSize - 1
	// WordsPerPage is the number of 64-bit words in one frame; a
	// page-table page holds this many entries.
	WordsPerPage = PageSize / 8 // 512
	// HugePageSize is the 2 MiB mapping granule used by the hugepage
	// experiments (Fig. 12 "2M" bars, Table 4).
	HugePageSize = 2 << 20
)

// PFN is a physical frame number.
type PFN uint64

// Addr returns the physical byte address of the start of the frame.
func (p PFN) Addr() uint64 { return uint64(p) << PageShift }

// PFNOf returns the frame containing physical address pa.
func PFNOf(pa uint64) PFN { return PFN(pa >> PageShift) }

// NoOwner marks an unowned frame.
const NoOwner = -1

// Page is the lazily-materialized contents of one frame.
type Page [WordsPerPage]uint64

// Segment is a contiguous physical range delegated to one guest kernel.
type Segment struct {
	Base   PFN
	Frames int
}

// Contains reports whether pfn falls inside the segment.
func (s Segment) Contains(pfn PFN) bool {
	return pfn >= s.Base && pfn < s.Base+PFN(s.Frames)
}

// End returns the first frame past the segment.
func (s Segment) End() PFN { return s.Base + PFN(s.Frames) }

// Errors returned by the allocators.
var (
	ErrOutOfMemory  = errors.New("mem: out of physical memory")
	ErrFragmented   = errors.New("mem: no contiguous run large enough")
	ErrDoubleFree   = errors.New("mem: frame already free")
	ErrOutOfRange   = errors.New("mem: frame out of range")
	ErrNotAllocated = errors.New("mem: frame not allocated")
	ErrBadOwner     = errors.New("mem: owner tag out of range")
)

// tag is a frame's owner as stored: owner+2, so the zero value means
// "free" and NoOwner is 1. A fresh machine is then all-free straight
// from make, with no per-frame initialization.
type tag int32

const freeTag tag = 0

func tagOf(owner int) tag { return tag(owner + 2) }

// validOwner reports whether the int32 encoding can hold owner.
func validOwner(owner int) bool { return owner >= NoOwner && owner <= math.MaxInt32-2 }

// frameRun is one entry of an owner's frame index: the n frames from
// base, or, when n is 0, the frames base+i for each bit i set in mask
// (a 64-frame window). Segments are listed as runs. Single frames are
// listed in windows, which stay compact when several owners take
// frames in turn, as a container and its KSM do.
type frameRun struct {
	base PFN
	n    PFN
	mask uint64
}

// each calls f for every frame the entries list, in order.
func each(runs []frameRun, f func(PFN)) {
	for _, r := range runs {
		if r.n > 0 {
			for p := r.base; p < r.base+r.n; p++ {
				f(p)
			}
			continue
		}
		for b := r.mask; b != 0; b &= b - 1 {
			f(r.base + PFN(bits.TrailingZeros64(b)))
		}
	}
}

// ownerIndex lists the frames allocated to one owner, so teardown
// (FreeOwned) walks what the owner holds rather than the whole
// machine. Free leaves a freed frame listed (stale); a stale entry is
// skipped on teardown because the frame's tag no longer matches. The
// index is compacted once stale entries outnumber live frames by more
// than indexSlack, which keeps it O(live frames) under any churn.
type ownerIndex struct {
	tag    tag // freeTag marks an unused slot of PhysMem.few
	runs   []frameRun
	listed int // frames the entries list, stale and duplicate ones included
	live   int // frames currently allocated to the owner
	// boot backs runs until an owner needs more entries, so a typical
	// owner's index allocates nothing.
	boot [8]frameRun
}

// indexSlack lets a small owner churn a few frames without compacting
// on every Free.
const indexSlack = 64

// addRun lists the n frames from base.
func (o *ownerIndex) addRun(base PFN, n int) {
	if k := len(o.runs) - 1; k >= 0 && o.runs[k].n > 0 && o.runs[k].base+o.runs[k].n == base {
		o.runs[k].n += PFN(n)
	} else {
		o.runs = append(o.runs, frameRun{base: base, n: PFN(n)})
	}
	o.listed += n
	o.live += n
}

// addFrame lists frame p.
func (o *ownerIndex) addFrame(p PFN) {
	w, bit := p&^63, uint64(1)<<(p&63)
	o.live++
	if k := len(o.runs) - 1; k >= 0 && o.runs[k].n == 0 && o.runs[k].base == w {
		if o.runs[k].mask&bit != 0 {
			return // freed and re-allocated since it was listed
		}
		o.runs[k].mask |= bit
	} else {
		o.runs = append(o.runs, frameRun{base: w, mask: bit})
	}
	o.listed++
}

// PhysMem is the physical memory of one simulated machine. It is not
// safe for concurrent use; the simulator is single-threaded per machine.
type PhysMem struct {
	frames int
	pages  map[PFN]*Page
	tags   []tag
	// few holds the indexes of the first owners in place, so a machine
	// with a handful of owners allocates none for them; owned holds the
	// rest.
	few   [8]ownerIndex
	owned map[tag]*ownerIndex
	// nextFree is a rotating scan cursor for single-frame allocation.
	nextFree PFN
	// segCursor is a bump cursor for contiguous segment allocation; the
	// segment region grows from the top of memory downward so single
	// frames and segments rarely collide.
	segCursor PFN
	inUse     int

	// Inj, when non-nil, can fail single-frame allocations
	// (faults.HostAlloc) — machine-wide memory pressure.
	Inj faults.Injector
}

// New creates a physical memory of the given number of 4 KiB frames.
// Frame 0 is reserved (a zero PFN in a PTE means "not present" in the
// paging model), matching real kernels that avoid handing out page 0.
func New(frames int) *PhysMem {
	if frames < 2 {
		panic("mem: need at least 2 frames")
	}
	m := &PhysMem{
		frames:    frames,
		pages:     make(map[PFN]*Page),
		tags:      make([]tag, frames),
		nextFree:  1,
		segCursor: PFN(frames),
	}
	m.tags[0] = tagOf(NoOwner) // reserve frame 0; it is in no owner's index
	return m
}

// Frames returns the total number of frames.
func (m *PhysMem) Frames() int { return m.frames }

// InUse returns the number of allocated frames (excluding reserved 0).
func (m *PhysMem) InUse() int { return m.inUse }

// lookup returns t's frame index, or nil when t holds no frames.
func (m *PhysMem) lookup(t tag) *ownerIndex {
	for i := range m.few {
		if m.few[i].tag == t {
			return &m.few[i]
		}
	}
	return m.owned[t]
}

// index returns t's frame index, creating it on first use.
func (m *PhysMem) index(t tag) *ownerIndex {
	if o := m.lookup(t); o != nil {
		return o
	}
	var o *ownerIndex
	for i := range m.few {
		if m.few[i].tag == freeTag {
			o = &m.few[i]
			break
		}
	}
	if o == nil {
		o = new(ownerIndex)
		if m.owned == nil {
			m.owned = make(map[tag]*ownerIndex)
		}
		m.owned[t] = o
	}
	*o = ownerIndex{tag: t}
	o.runs = o.boot[:0]
	return o
}

// drop forgets an index whose owner holds no frames any more.
func (m *PhysMem) drop(o *ownerIndex) {
	delete(m.owned, o.tag)
	*o = ownerIndex{}
}

// Alloc allocates one frame and assigns it to owner.
func (m *PhysMem) Alloc(owner int) (PFN, error) {
	if !validOwner(owner) {
		return 0, ErrBadOwner
	}
	if m.Inj != nil && m.Inj.Fire(faults.HostAlloc) {
		return 0, ErrOutOfMemory
	}
	for scanned := 0; scanned < m.frames; scanned++ {
		p := m.nextFree
		m.nextFree++
		if m.nextFree >= PFN(m.frames) {
			m.nextFree = 1
		}
		if p >= m.segCursor { // inside the segment region
			continue
		}
		if m.tags[p] == freeTag {
			t := tagOf(owner)
			m.tags[p] = t
			m.inUse++
			m.index(t).addFrame(p)
			return p, nil
		}
	}
	return 0, ErrOutOfMemory
}

// AllocSegment allocates n physically contiguous frames for owner. CKI
// uses this to delegate hPA ranges to guest kernels.
func (m *PhysMem) AllocSegment(n, owner int) (Segment, error) {
	if n <= 0 {
		return Segment{}, fmt.Errorf("mem: bad segment size %d", n)
	}
	if !validOwner(owner) {
		return Segment{}, ErrBadOwner
	}
	if m.segCursor < PFN(n)+1 {
		return Segment{}, ErrFragmented
	}
	base := m.segCursor - PFN(n)
	// Ensure the run is genuinely free (the single-frame allocator never
	// strays above segCursor, but a prior Free could have been misused).
	for p := base; p < m.segCursor; p++ {
		if m.tags[p] != freeTag {
			return Segment{}, ErrFragmented
		}
	}
	t := tagOf(owner)
	for p := base; p < m.segCursor; p++ {
		m.tags[p] = t
	}
	m.index(t).addRun(base, n)
	m.inUse += n
	m.segCursor = base
	return Segment{Base: base, Frames: n}, nil
}

// Free releases a single frame.
func (m *PhysMem) Free(p PFN) error {
	if p == 0 || p >= PFN(m.frames) {
		return ErrOutOfRange
	}
	t := m.tags[p]
	if t == freeTag {
		return ErrDoubleFree
	}
	m.tags[p] = freeTag
	delete(m.pages, p)
	m.inUse--
	o := m.lookup(t)
	o.live--
	switch {
	case o.live == 0:
		m.drop(o)
	case o.listed > 2*o.live+indexSlack:
		m.compact(o)
	}
	return nil
}

// compact rewrites o to list exactly the frames still tagged with its
// owner, once each, all in windows. A frame freed and re-allocated to
// the same owner can be listed twice; the first visit flips its tag
// negative to mark it seen, and the tags are restored afterwards. Each
// compaction drops more than half of the listed entries, so its cost
// is amortized over the frees that made them stale.
func (m *PhysMem) compact(o *ownerIndex) {
	t, old := o.tag, o.runs
	o.runs, o.listed, o.live = make([]frameRun, 0, len(old)), 0, 0
	each(old, func(p PFN) {
		if m.tags[p] == t {
			m.tags[p] = -t
			o.addFrame(p)
		}
	})
	each(o.runs, func(p PFN) { m.tags[p] = t })
}

// FreeOwned releases every frame tagged with owner back to the
// allocator — the host reclaiming a dead container's memory before
// booting its replacement. It walks only the owner's frame index, so
// teardown costs what the owner holds, not the machine size. Segment
// frames freed at the bottom of the segment region move segCursor back
// up, so repeated crash/restart cycles do not exhaust the
// contiguous-delegation space.
func (m *PhysMem) FreeOwned(owner int) int {
	n := 0
	if validOwner(owner) {
		t := tagOf(owner)
		if o := m.lookup(t); o != nil {
			each(o.runs, func(p PFN) {
				if m.tags[p] == t {
					m.tags[p] = freeTag
					delete(m.pages, p)
					n++
				}
			})
			m.inUse -= n
			m.drop(o)
		}
	}
	for m.segCursor < PFN(m.frames) && m.tags[m.segCursor] == freeTag {
		m.segCursor++
	}
	return n
}

// Owner returns the owner tag of a frame, or NoOwner.
func (m *PhysMem) Owner(p PFN) int {
	if p >= PFN(m.frames) || m.tags[p] == freeTag {
		return NoOwner
	}
	return int(m.tags[p]) - 2
}

// Allocated reports whether frame p is currently allocated.
func (m *PhysMem) Allocated(p PFN) bool {
	return p < PFN(m.frames) && m.tags[p] != freeTag
}

// Page returns the backing contents of frame p, materializing them on
// first use. Reading a never-written frame observes zeros, like real
// zeroed physical memory.
func (m *PhysMem) Page(p PFN) *Page {
	if p >= PFN(m.frames) {
		panic(fmt.Sprintf("mem: PFN %#x out of range", uint64(p)))
	}
	pg := m.pages[p]
	if pg == nil {
		pg = new(Page)
		m.pages[p] = pg
	}
	return pg
}

// PeekPage returns the backing contents of frame p, or nil when the
// frame was never written. Unlike Page it never materializes a frame,
// so a read-only pass over a page-table page can look the frame up
// once and read its words directly; Word reads a nil page as zeros.
func (m *PhysMem) PeekPage(p PFN) *Page {
	if p >= PFN(m.frames) {
		panic(fmt.Sprintf("mem: PFN %#x out of range", uint64(p)))
	}
	return m.pages[p]
}

// Word returns word i of the page; a nil page (never written) reads 0.
func (pg *Page) Word(i int) uint64 {
	if pg == nil {
		return 0
	}
	return pg[i]
}

// ReadWord reads the 64-bit word at physical address pa (must be 8-byte
// aligned).
func (m *PhysMem) ReadWord(pa uint64) uint64 {
	pfn := PFNOf(pa)
	if pfn >= PFN(m.frames) {
		panic(fmt.Sprintf("mem: physical read at %#x out of range", pa))
	}
	pg := m.pages[pfn]
	if pg == nil {
		return 0
	}
	return pg[(pa&PageMask)/8]
}

// WriteWord writes the 64-bit word at physical address pa.
func (m *PhysMem) WriteWord(pa uint64, v uint64) {
	m.Page(PFNOf(pa))[(pa&PageMask)/8] = v
}
