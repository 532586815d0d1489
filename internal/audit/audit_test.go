package audit

import (
	"errors"
	"hash/fnv"
	"testing"
	"testing/quick"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/tlb"
	"repro/internal/wire"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Emit(EvWriteCR3, 0, 0, 1, 2, 3)
	r.EmitTLBConfig(tlb.New(8), 0)
	if r.Len() != 0 || r.Events() != nil {
		t.Fatalf("nil recorder recorded something")
	}
	if got := len(r.Marshal()); got == 0 {
		t.Fatalf("nil recorder must still marshal a valid empty log")
	}
}

func TestEmitStampsVirtualTimeWithoutAdvancing(t *testing.T) {
	clk := new(clock.Clock)
	clk.Advance(clock.FromNanos(5))
	before := clk.Now()
	r := NewRecorder(clk)
	r.Emit(EvSyscall, 1, 0x0101, 0, 0, 0)
	if clk.Now() != before {
		t.Fatalf("Emit advanced the clock: %v -> %v", before, clk.Now())
	}
	ev := r.Events()
	if len(ev) != 1 || ev[0].At != before || ev[0].VCPU != 1 || ev[0].PCID != 0x0101 {
		t.Fatalf("bad event: %+v", ev)
	}
}

func TestEmitTLBConfigOncePerTLB(t *testing.T) {
	r := NewRecorder(new(clock.Clock))
	a, b := tlb.New(16), tlb.New(32)
	r.EmitTLBConfig(a, 0)
	r.EmitTLBConfig(a, 0) // duplicate: dropped
	r.EmitTLBConfig(b, 1) // a different TLB on a fresh machine: kept
	ev := r.Events()
	if len(ev) != 2 || ev[0].A != 16 || ev[1].A != 32 {
		t.Fatalf("want two configs (16, 32), got %+v", ev)
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	clk := new(clock.Clock)
	r := NewRecorder(clk)
	r.Meta = Meta{Kind: "ckirun", Runtime: "cki", Workload: "btree", FaultSeed: 7}
	r.Emit(EvWriteCR3, 2, 0x0203, 42, 3, 0x123)
	clk.Advance(clock.FromNanos(100))
	r.Emit(EvFault, 0, 0, 2, 0xdeadbeef, PackFaultFlags(true, false))
	l, err := Unmarshal(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if l.Meta != r.Meta {
		t.Fatalf("meta roundtrip: got %+v want %+v", l.Meta, r.Meta)
	}
	want := r.Events()
	if len(l.Events) != len(want) {
		t.Fatalf("event count: got %d want %d", len(l.Events), len(want))
	}
	for i := range want {
		if l.Events[i] != want[i] {
			t.Fatalf("event %d: got %+v want %+v", i, l.Events[i], want[i])
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("short"), []byte("NOTAUDIT........")} {
		if _, err := Unmarshal(data); err == nil {
			t.Fatalf("accepted %q", data)
		}
	}
	// Truncated records are rejected too.
	good := NewRecorder(new(clock.Clock))
	good.Emit(EvSyscall, 0, 0, 0, 0, 0)
	data := good.Marshal()
	if _, err := Unmarshal(data[:len(data)-3]); err == nil {
		t.Fatalf("accepted truncated record stream")
	}
}

func TestPackRoundtrips(t *testing.T) {
	if err := quick.Check(func(ptp uint32, idx uint16, level uint8) bool {
		i, l := int(idx%512), int(level%5)
		p, gi, gl := UnpackPTESlot(PackPTESlot(uint64(ptp), i, l))
		return p == uint64(ptp) && gi == i && gl == l
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(pfn uint32, w, u, nx, g, h bool, pkey uint8) bool {
		k := int(pkey % 16)
		gp, gw, gu, gnx, gg, gh, gk := UnpackTLBEntry(PackTLBEntry(uint64(pfn), w, u, nx, g, h, k))
		return gp == uint64(pfn) && gw == w && gu == u && gnx == nx && gg == g && gh == h && gk == k
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestSiteCodes(t *testing.T) {
	sites := []faults.Site{
		faults.FrameAlloc, faults.HostAlloc, faults.PTEWrite, faults.KernelPF,
		faults.DoubleFault, faults.VirtioKick, faults.IRQDrop, faults.StuckCLI,
		faults.Hypercall, faults.IPILost, faults.AckDelay,
	}
	seen := map[uint64]bool{}
	for _, s := range sites {
		c := SiteCode(s)
		if c == 0 {
			t.Fatalf("site %q has no code", s)
		}
		if seen[c] {
			t.Fatalf("site %q shares code %d", s, c)
		}
		seen[c] = true
		if SiteName(c) != string(s) {
			t.Fatalf("SiteName(%d) = %q, want %q", c, SiteName(c), s)
		}
	}
}

func TestKindNamesComplete(t *testing.T) {
	for k := Kind(1); int(k) < NumKinds; k++ {
		name := k.String()
		if name == "" || name == "invalid" {
			t.Fatalf("kind %d has no name", k)
		}
		if KindByName(name) != k {
			t.Fatalf("KindByName(%q) = %v, want %v", name, KindByName(name), k)
		}
	}
}

func TestWrapInjector(t *testing.T) {
	r := NewRecorder(new(clock.Clock))
	plan := faults.NewPlan(1, faults.Rule{Site: faults.VirtioKick, Nth: 2})
	inj := WrapInjector(plan, r)
	if inj.Fire(faults.VirtioKick) {
		t.Fatalf("first occurrence must not fire")
	}
	if !inj.Fire(faults.VirtioKick) {
		t.Fatalf("second occurrence must fire")
	}
	ev := r.Events()
	if len(ev) != 1 || ev[0].Kind != EvInjected || ev[0].A != SiteCode(faults.VirtioKick) {
		t.Fatalf("want one EvInjected for virtio-kick, got %+v", ev)
	}
	// Nil recorder / injector: pass-through.
	if WrapInjector(nil, r) != nil {
		t.Fatalf("nil injector must stay nil")
	}
	if got := WrapInjector(plan, nil); got != faults.Injector(plan) {
		t.Fatalf("nil recorder must return the inner injector")
	}
}

func TestFirstDivergence(t *testing.T) {
	base := []Event{
		{At: 1, Kind: EvSyscall},
		{At: 2, Kind: EvWriteCR3, A: 10, B: 1},
		{At: 3, Kind: EvSysret},
	}
	if d := FirstDivergence(base, base); d != nil {
		t.Fatalf("identical logs diverged: %v", d)
	}
	mod := append([]Event(nil), base...)
	mod[1].A = 11
	d := FirstDivergence(base, mod)
	if d == nil || d.Index != 1 || d.A.A != 10 || d.B.A != 11 {
		t.Fatalf("bad divergence: %+v", d)
	}
	d = FirstDivergence(base, base[:2])
	if d == nil || d.Index != 2 || d.A == nil || d.B != nil {
		t.Fatalf("bad length divergence: %+v", d)
	}
	if s := d.String(); s == "" {
		t.Fatalf("empty divergence report")
	}
}

// synthetic builds a deterministic event stream exercising every state
// transition the replay fold implements.
func synthetic(n int) []Event {
	var ev []Event
	ev = append(ev, Event{Kind: EvTLBConfig, A: 8})
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; len(ev) < n; i++ {
		at := clock.Time(i) * clock.Nanosecond
		switch next() % 10 {
		case 0:
			ev = append(ev, Event{At: at, Kind: EvWriteCR3, A: next() % 64, B: next() % 4})
		case 1:
			ev = append(ev, Event{At: at, Kind: EvWritePKRS, A: next() & 0xffff})
		case 2:
			ev = append(ev, Event{At: at, Kind: EvPTEWrite,
				A: PackPTESlot(2+next()%8, int(next()%512), 1), C: next()})
		case 3:
			ev = append(ev, Event{At: at, Kind: EvPTPRetire, A: 2 + next()%8})
		case 4:
			ev = append(ev, Event{At: at, Kind: EvTLBFill, PCID: uint16(next() % 4),
				A: (next() % 4096) << 12,
				B: PackTLBEntry(next()%1024, true, true, false, false, false, 0)})
		case 5:
			ev = append(ev, Event{At: at, Kind: EvTLBFlushPage, PCID: uint16(next() % 4),
				A: (next() % 4096) << 12})
		case 6:
			ev = append(ev, Event{At: at, Kind: EvTLBFlushPCID, A: next() % 4})
		case 7:
			ev = append(ev, Event{At: at, Kind: EvFault, A: next() % 8, B: next()})
		case 8:
			ev = append(ev, Event{At: at, Kind: EvWriteMSR, A: 0x6e1, B: next()})
		case 9:
			ev = append(ev, Event{At: at, Kind: EvInterrupt, A: 32 + next()%4, B: 1})
		}
	}
	return ev
}

// TestReplayFoldPurity is the prefix-replay property on synthetic
// events: folding events[n:m] on top of ReplayPrefix(ev, n) must equal
// ReplayPrefix(ev, m) exactly.
func TestReplayFoldPurity(t *testing.T) {
	ev := synthetic(400)
	if err := quick.Check(func(a, b uint16) bool {
		n, m := int(a)%(len(ev)+1), int(b)%(len(ev)+1)
		if n > m {
			n, m = m, n
		}
		st := ReplayPrefix(ev, n)
		for _, e := range ev[n:m] {
			st.Apply(e)
		}
		return st.Fingerprint() == ReplayPrefix(ev, m).Fingerprint()
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReplayUntil(t *testing.T) {
	ev := synthetic(100)
	cut := ev[40].At
	n := 0
	for _, e := range ev {
		if e.At <= cut {
			n++
		}
	}
	if got, want := ReplayUntil(ev, cut).Fingerprint(), ReplayPrefix(ev, n).Fingerprint(); got != want {
		t.Fatalf("ReplayUntil != prefix of all events at or before the cut")
	}
}

func TestReplayStateViews(t *testing.T) {
	ev := []Event{
		{Kind: EvTLBConfig, A: 4},
		{At: 1, Kind: EvWriteCR3, A: 5, B: 0x0101},
		// Root 5 slot 0 -> table 6; table 6 slot 0 -> leaf at pfn 7,
		// present+writable+user (bits 0,1,2), through two mid levels.
		{At: 2, Kind: EvPTEWrite, A: PackPTESlot(5, 0, 4), C: 6<<12 | 0b111},
		{At: 3, Kind: EvPTEWrite, A: PackPTESlot(6, 0, 3), C: 8<<12 | 0b111},
		{At: 4, Kind: EvPTEWrite, A: PackPTESlot(8, 0, 2), C: 9<<12 | 0b111},
		{At: 5, Kind: EvPTEWrite, A: PackPTESlot(9, 0, 1), C: 7<<12 | 0b111},
		{At: 6, Kind: EvTLBFill, PCID: 0x0101, A: 0,
			B: PackTLBEntry(7, true, true, false, false, false, 0)},
	}
	st := ReplayPrefix(ev, len(ev))
	v := st.VCPU(0)
	if v == nil || v.CR3 != 5 || v.PCID != 0x0101 {
		t.Fatalf("bad vcpu state: %+v", v)
	}
	regs := st.Regions(5)
	if len(regs) != 1 || regs[0].Start != 0 || !regs[0].Writable || !regs[0].User {
		t.Fatalf("bad replayed regions: %+v", regs)
	}
	slots := st.TLBEntries(0)
	if len(slots) != 1 || slots[0].PCID != 0x0101 || uint64(slots[0].Entry.PFN) != 7 {
		t.Fatalf("bad replayed TLB: %+v", slots)
	}
	if st.Render() == "" || st.Dump() == "" {
		t.Fatalf("empty renderings")
	}
}

// TestMarshalGoldenDigest pins the CKIAUD1 bytes of a fixed meta and
// event list: any change to the header framing, the meta JSON or the
// record layout shows up as a digest mismatch.
func TestMarshalGoldenDigest(t *testing.T) {
	meta := Meta{Kind: "ckirun", Runtime: "CKI-BM", Nested: true, Workload: "btree", FaultSeed: 42}
	events := []Event{
		{Kind: EvWriteCR3, VCPU: 0, PCID: 0x101, At: clock.Time(1000), A: 7, B: 3, C: 0x123},
		{Kind: EvPTEWrite, VCPU: 1, PCID: 0x102, At: clock.Time(2500), A: 1, B: 2, C: 3},
		{Kind: EvFault, VCPU: 3, PCID: 0xffff, At: clock.Time(-1), A: 1 << 63, B: 0xdeadbeef, C: PackFaultFlags(true, false)},
	}
	enc := Marshal(meta, events)
	sum := fnv.New64a()
	sum.Write(enc)
	const wantLen, wantSum = 217, uint64(0xf2ed79072b7b5aac)
	if len(enc) != wantLen || sum.Sum64() != wantSum {
		t.Fatalf("CKIAUD1 golden digest: %d bytes, fnv64a %#016x; want %d bytes, %#016x",
			len(enc), sum.Sum64(), wantLen, wantSum)
	}
}

// TestUnmarshalErrorOffsets: every CKIAUD1 decode failure is a
// *wire.Error naming the offset of the faulty field.
func TestUnmarshalErrorOffsets(t *testing.T) {
	good := Marshal(Meta{Kind: "ckirun", Runtime: "CKI-BM", Workload: "web"}, []Event{
		{Kind: EvWriteCR3, PCID: 0x101, At: clock.Time(1000), A: 7},
		{Kind: EvPTEWrite, VCPU: 1, At: clock.Time(2000), A: 1, B: 2, C: 3},
	})
	last := len(good) - recordSize // offset of the last record
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
		want   error
		off    int
	}{
		{"empty", func(b []byte) []byte { return b[:0] }, wire.ErrMagic, 0},
		{"bad magic", func(b []byte) []byte { b[3] = 'X'; return b }, wire.ErrMagic, 3},
		{"short header", func(b []byte) []byte { return b[:10] }, wire.ErrTrunc, 8},
		{"forged meta length", func(b []byte) []byte {
			b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0x7f
			return b
		}, wire.ErrTrunc, 8},
		{"flipped meta byte", func(b []byte) []byte { b[12] ^= 0x40; return b }, wire.ErrEncoding, 12},
		{"torn record", func(b []byte) []byte { return b[:len(b)-13] }, wire.ErrTrunc, last + 24},
		{"trailing bytes", func(b []byte) []byte { return append(b, 1, 2, 3, 4, 5) }, wire.ErrTrunc, len(good) + 4},
	} {
		_, err := Unmarshal(tc.mutate(append([]byte(nil), good...)))
		var we *wire.Error
		if !errors.As(err, &we) || !errors.Is(err, tc.want) || we.Off != tc.off {
			t.Errorf("%s: got %v, want %v at offset %d", tc.name, err, tc.want, tc.off)
		}
	}
}
