package mem

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAllocFree(t *testing.T) {
	m := New(64)
	p, err := m.Alloc(7)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if p == 0 {
		t.Fatal("Alloc returned reserved frame 0")
	}
	if got := m.Owner(p); got != 7 {
		t.Errorf("Owner = %d, want 7", got)
	}
	if !m.Allocated(p) {
		t.Error("Allocated = false after Alloc")
	}
	if err := m.Free(p); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if m.Allocated(p) {
		t.Error("Allocated = true after Free")
	}
	if err := m.Free(p); err != ErrDoubleFree {
		t.Errorf("double Free err = %v, want ErrDoubleFree", err)
	}
	if err := m.Free(0); err != ErrOutOfRange {
		t.Errorf("Free(0) err = %v, want ErrOutOfRange", err)
	}
}

// TestBadOwner: a tag the frame encoding cannot hold is refused, not
// truncated into some other owner's tag or into "free".
func TestBadOwner(t *testing.T) {
	m := New(64)
	for _, owner := range []int{NoOwner - 1, math.MaxInt32} {
		if _, err := m.Alloc(owner); err != ErrBadOwner {
			t.Errorf("Alloc(%d) err = %v, want ErrBadOwner", owner, err)
		}
		if _, err := m.AllocSegment(4, owner); err != ErrBadOwner {
			t.Errorf("AllocSegment(4, %d) err = %v, want ErrBadOwner", owner, err)
		}
		if n := m.FreeOwned(owner); n != 0 {
			t.Errorf("FreeOwned(%d) = %d, want 0", owner, n)
		}
	}
	if m.InUse() != 0 {
		t.Errorf("InUse = %d after refused allocations", m.InUse())
	}
}

func TestAllocExhaustion(t *testing.T) {
	m := New(8)
	var got []PFN
	for {
		p, err := m.Alloc(1)
		if err != nil {
			if err != ErrOutOfMemory {
				t.Fatalf("err = %v, want ErrOutOfMemory", err)
			}
			break
		}
		got = append(got, p)
	}
	if len(got) != 7 { // 8 frames minus reserved frame 0
		t.Errorf("allocated %d frames, want 7", len(got))
	}
	seen := map[PFN]bool{}
	for _, p := range got {
		if seen[p] {
			t.Errorf("frame %d allocated twice", p)
		}
		seen[p] = true
	}
}

func TestAllocSegmentContiguity(t *testing.T) {
	m := New(256)
	s1, err := m.AllocSegment(32, 1)
	if err != nil {
		t.Fatalf("AllocSegment: %v", err)
	}
	if s1.Frames != 32 {
		t.Errorf("Frames = %d, want 32", s1.Frames)
	}
	s2, err := m.AllocSegment(16, 2)
	if err != nil {
		t.Fatalf("AllocSegment 2: %v", err)
	}
	if s2.End() != s1.Base {
		t.Errorf("segments not adjacent: s2 ends at %d, s1 starts at %d", s2.End(), s1.Base)
	}
	for p := s1.Base; p < s1.End(); p++ {
		if m.Owner(p) != 1 {
			t.Fatalf("frame %d owner = %d, want 1", p, m.Owner(p))
		}
	}
	if !s1.Contains(s1.Base) || s1.Contains(s1.End()) {
		t.Error("Contains boundary conditions wrong")
	}
}

func TestAllocSegmentTooLarge(t *testing.T) {
	m := New(64)
	if _, err := m.AllocSegment(64, 1); err != ErrFragmented {
		t.Errorf("err = %v, want ErrFragmented", err)
	}
	if _, err := m.AllocSegment(0, 1); err == nil {
		t.Error("AllocSegment(0) succeeded, want error")
	}
}

func TestSegmentsAndFramesDisjoint(t *testing.T) {
	m := New(128)
	seg, err := m.AllocSegment(100, 1)
	if err != nil {
		t.Fatalf("AllocSegment: %v", err)
	}
	for {
		p, err := m.Alloc(2)
		if err != nil {
			break
		}
		if seg.Contains(p) {
			t.Fatalf("single-frame Alloc returned %d inside segment [%d,%d)", p, seg.Base, seg.End())
		}
	}
}

func TestLazyPageContents(t *testing.T) {
	m := New(64)
	p, _ := m.Alloc(1)
	if got := m.ReadWord(p.Addr() + 16); got != 0 {
		t.Errorf("fresh frame reads %d, want 0", got)
	}
	m.WriteWord(p.Addr()+16, 0xdeadbeef)
	if got := m.ReadWord(p.Addr() + 16); got != 0xdeadbeef {
		t.Errorf("ReadWord = %#x, want 0xdeadbeef", got)
	}
	// Free drops contents; a re-allocated frame must read zero again.
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	m.tags[p] = tagOf(1) // simulate re-allocation of the same frame
	if got := m.ReadWord(p.Addr() + 16); got != 0 {
		t.Errorf("recycled frame reads %#x, want 0", got)
	}
}

func TestPFNAddrRoundTrip(t *testing.T) {
	f := func(n uint32) bool {
		p := PFN(n)
		return PFNOf(p.Addr()) == p && PFNOf(p.Addr()+PageMask) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: after any interleaving of allocs and frees, InUse equals the
// number of live frames and no frame is handed out twice.
func TestAllocatorInvariant(t *testing.T) {
	f := func(ops []bool) bool {
		m := New(32)
		var live []PFN
		for _, alloc := range ops {
			if alloc || len(live) == 0 {
				p, err := m.Alloc(0)
				if err != nil {
					continue
				}
				for _, q := range live {
					if q == p {
						return false
					}
				}
				live = append(live, p)
			} else {
				p := live[len(live)-1]
				live = live[:len(live)-1]
				if m.Free(p) != nil {
					return false
				}
			}
		}
		return m.InUse() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refMem is the reference allocator the oracle test checks PhysMem
// against: the plain full-scan design, with a per-frame allocated bit
// and owner tag, and a FreeOwned that walks every frame of the machine.
type refMem struct {
	frames    int
	allocated []bool
	owner     []int
	nextFree  PFN
	segCursor PFN
	inUse     int
}

func newRefMem(frames int) *refMem {
	r := &refMem{
		frames:    frames,
		allocated: make([]bool, frames),
		owner:     make([]int, frames),
		nextFree:  1,
		segCursor: PFN(frames),
	}
	for i := range r.owner {
		r.owner[i] = NoOwner
	}
	r.allocated[0] = true
	return r
}

func (r *refMem) alloc(owner int) (PFN, error) {
	for scanned := 0; scanned < r.frames; scanned++ {
		p := r.nextFree
		r.nextFree++
		if r.nextFree >= PFN(r.frames) {
			r.nextFree = 1
		}
		if p >= r.segCursor {
			continue
		}
		if !r.allocated[p] {
			r.allocated[p] = true
			r.owner[p] = owner
			r.inUse++
			return p, nil
		}
	}
	return 0, ErrOutOfMemory
}

func (r *refMem) allocSegment(n, owner int) (Segment, error) {
	if n <= 0 {
		return Segment{}, errors.New("bad size")
	}
	if r.segCursor < PFN(n)+1 {
		return Segment{}, ErrFragmented
	}
	base := r.segCursor - PFN(n)
	for p := base; p < r.segCursor; p++ {
		if r.allocated[p] {
			return Segment{}, ErrFragmented
		}
	}
	for p := base; p < r.segCursor; p++ {
		r.allocated[p] = true
		r.owner[p] = owner
	}
	r.inUse += n
	r.segCursor = base
	return Segment{Base: base, Frames: n}, nil
}

func (r *refMem) free(p PFN) error {
	if p == 0 || p >= PFN(r.frames) {
		return ErrOutOfRange
	}
	if !r.allocated[p] {
		return ErrDoubleFree
	}
	r.allocated[p] = false
	r.owner[p] = NoOwner
	r.inUse--
	return nil
}

func (r *refMem) freeOwned(owner int) int {
	n := 0
	for p := PFN(1); p < PFN(r.frames); p++ {
		if r.allocated[p] && r.owner[p] == owner {
			r.allocated[p] = false
			r.owner[p] = NoOwner
			r.inUse--
			n++
		}
	}
	for r.segCursor < PFN(r.frames) && !r.allocated[r.segCursor] {
		r.segCursor++
	}
	return n
}

// oracleOwners are the tag kinds the machine uses: containers (0 is a
// valid tag too), a KSM owner, the page store's owner and NoOwner.
var oracleOwners = []int{0, 1, 2, 1<<20 + 1, 1 << 21, NoOwner}

// checkIndex verifies the per-owner index invariants: every allocated
// frame but 0 is listed under its owner, live counts are exact, and no
// index outgrows twice its live frames plus the slack.
func checkIndex(m *PhysMem) error {
	live := map[tag]int{}
	for p := PFN(1); p < PFN(m.frames); p++ {
		if t := m.tags[p]; t != freeTag {
			live[t]++
		}
	}
	all := map[tag]*ownerIndex{}
	for i := range m.few {
		if o := &m.few[i]; o.tag != freeTag {
			all[o.tag] = o
		}
	}
	for t, o := range m.owned {
		if all[t] != nil || o.tag != t {
			return fmt.Errorf("owner %d: indexed twice or under the wrong tag", int(t)-2)
		}
		all[t] = o
	}
	for t, o := range all {
		listed := map[PFN]bool{}
		total := 0
		each(o.runs, func(p PFN) {
			listed[p] = true
			total++
		})
		if total != o.listed || o.live != live[t] || o.live == 0 {
			return fmt.Errorf("owner %d: listed %d (entries cover %d) live %d (actual %d)",
				int(t)-2, o.listed, total, o.live, live[t])
		}
		if o.listed > 2*o.live+indexSlack {
			return fmt.Errorf("owner %d: index lists %d frames for %d live", int(t)-2, o.listed, o.live)
		}
		for p := PFN(1); p < PFN(m.frames); p++ {
			if m.tags[p] == t && !listed[p] {
				return fmt.Errorf("owner %d: frame %d allocated but not indexed", int(t)-2, p)
			}
		}
		delete(live, t)
	}
	if len(live) != 0 {
		return fmt.Errorf("owners with frames but no index: %v", live)
	}
	return nil
}

// TestPhysMemOracle drives random Alloc, AllocSegment, Free and
// FreeOwned sequences over every owner kind and checks PhysMem against
// the full-scan reference after each step: results and errors, InUse,
// Owner and Allocated of every frame, and both allocation cursors —
// segCursor fixes the base of the next AllocSegment, so this covers
// FreeOwned's roll-back of the segment region. Churn bursts (one frame
// held, then many alloc/free pairs by the same owner) push an index
// past its slack, so compaction runs too, and on the small machine
// freed frames come back to the same owner.
func TestPhysMemOracle(t *testing.T) {
	f := func(ops []uint32, small bool) bool {
		frames := 96
		if small {
			frames = 24
		}
		m, r := New(frames), newRefMem(frames)
		var what string
		alloc := func(owner int) (PFN, bool) {
			p, err := m.Alloc(owner)
			rp, rerr := r.alloc(owner)
			what = fmt.Sprintf("Alloc(%d) = %d, %v; reference %d, %v", owner, p, err, rp, rerr)
			return p, p == rp && err == rerr
		}
		free := func(p PFN) bool {
			err, rerr := m.Free(p), r.free(p)
			what = fmt.Sprintf("Free(%d) = %v; reference %v", p, err, rerr)
			return err == rerr
		}
		for i, op := range ops {
			owner := oracleOwners[int(op>>8)%len(oracleOwners)]
			ok := true
			switch op % 16 {
			case 0, 1, 2, 3, 4, 5:
				_, ok = alloc(owner)
			case 6:
				n := int(op>>16) % 12
				s, err := m.AllocSegment(n, owner)
				rs, rerr := r.allocSegment(n, owner)
				what = fmt.Sprintf("AllocSegment(%d, %d) = %+v, %v; reference %+v, %v", n, owner, s, err, rs, rerr)
				ok = s == rs && (err == nil) == (rerr == nil) && (rerr == nil || n <= 0 || err == rerr)
			case 7, 8, 9, 10, 11:
				ok = free(PFN(op>>16) % PFN(frames+1))
			case 12, 13:
				n, rn := m.FreeOwned(owner), r.freeOwned(owner)
				what = fmt.Sprintf("FreeOwned(%d) = %d; reference %d", owner, n, rn)
				ok = n == rn
			case 14, 15:
				if _, ok = alloc(owner); !ok {
					break
				}
				for k := 2 * indexSlack; ok && k > 0; k-- {
					var p PFN
					if p, ok = alloc(owner); ok && p != 0 {
						ok = free(p)
					}
				}
			}
			if !ok {
				t.Logf("op %d: %s", i, what)
				return false
			}
			if m.InUse() != r.inUse || m.nextFree != r.nextFree || m.segCursor != r.segCursor {
				t.Logf("op %d %s: InUse %d/%d nextFree %d/%d segCursor %d/%d", i, what,
					m.InUse(), r.inUse, m.nextFree, r.nextFree, m.segCursor, r.segCursor)
				return false
			}
			for p := PFN(0); p <= PFN(frames); p++ {
				want := NoOwner
				if int(p) < frames {
					want = r.owner[p]
				}
				if m.Owner(p) != want || m.Allocated(p) != (int(p) < frames && r.allocated[p]) {
					t.Logf("op %d %s: frame %d owner %d allocated %v, reference %d", i, what,
						p, m.Owner(p), m.Allocated(p), want)
					return false
				}
			}
			if err := checkIndex(m); err != nil {
				t.Logf("op %d %s: %v", i, what, err)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Values: func(args []reflect.Value, rnd *rand.Rand) {
		ops := make([]uint32, 50+rnd.Intn(300))
		for i := range ops {
			ops[i] = rnd.Uint32()
		}
		args[0] = reflect.ValueOf(ops)
		args[1] = reflect.ValueOf(rnd.Intn(2) == 0)
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestOwnerIndexBounded pins the index bound: an owner that allocates
// and frees forever keeps an index O(its live frames), whether it is a
// container or NoOwner (whose frames FreeOwned is never asked to
// reclaim), and whether the machine is small enough that freed frames
// come back to the same owner (duplicate entries) or not.
func TestOwnerIndexBounded(t *testing.T) {
	for _, frames := range []int{32, 1 << 12} {
		for _, owner := range []int{5, NoOwner} {
			m := New(frames)
			const live = 8
			var ring []PFN
			for i := 0; i < 10000; i++ {
				p, err := m.Alloc(owner)
				if err != nil {
					t.Fatal(err)
				}
				ring = append(ring, p)
				if len(ring) > live {
					if err := m.Free(ring[0]); err != nil {
						t.Fatal(err)
					}
					ring = ring[1:]
				}
			}
			o := m.lookup(tagOf(owner))
			if o.live != live || o.listed > 2*live+indexSlack || len(o.runs) > o.listed {
				t.Errorf("frames %d owner %d: index lists %d frames in %d entries for %d live",
					frames, owner, o.listed, len(o.runs), o.live)
			}
			if err := checkIndex(m); err != nil {
				t.Errorf("frames %d owner %d: %v", frames, owner, err)
			}
		}
	}
}

// TestOwnerChurnAllocs pins the index's steady-state cost: an owner
// that keeps a few frames live while allocating and freeing others
// allocates less than once per Alloc/Free pair (compaction is
// amortized), and FreeOwned itself allocates nothing.
func TestOwnerChurnAllocs(t *testing.T) {
	m := New(1 << 12)
	for i := 0; i < 8; i++ {
		if _, err := m.Alloc(3); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(1000, func() {
		p, err := m.Alloc(3)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Free(p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Alloc/Free churn: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.FreeOwned(3) }); n != 0 {
		t.Errorf("FreeOwned: %v allocs/op, want 0", n)
	}
}

// BenchmarkFreeOwned reclaims the same owned set — one 256-frame
// segment and 64 single frames — from a small and a serverless-sized
// machine. The two cells should cost the same: teardown walks the
// owner's index, not the machine.
func BenchmarkFreeOwned(b *testing.B) {
	for _, frames := range []int{1 << 12, 1 << 17} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			m := New(frames)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := m.AllocSegment(256, 9); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 64; j++ {
					if _, err := m.Alloc(9); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if n := m.FreeOwned(9); n != 256+64 {
					b.Fatalf("FreeOwned freed %d frames, want %d", n, 256+64)
				}
			}
		})
	}
}
