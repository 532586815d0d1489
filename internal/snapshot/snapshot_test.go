package snapshot

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/guest"
	"repro/internal/wire"
)

// sample builds a representative snapshot touching every field group:
// config, files, live and zombie processes, VMAs, resident pages with
// mixed A/D bits, and per-vCPU TLB tags.
func sample() *Snapshot {
	return &Snapshot{
		Config: Config{
			Kind: 3, Runtime: "CKI-BM", NumVCPU: 2,
			HostFrames: 1 << 16, GuestFrames: 1 << 15, SegmentFrames: 1 << 14,
			TLBEntries: 512, HardenKSMGate: true,
		},
		ContainerID: 1,
		Fingerprint: 0xdeadbeefcafef00d,
		Image: guest.Image{
			ContainerID: 1, NextPID: 4, NextASID: 3, NextIno: 7,
			CurPID: 1, RunQueue: []int{2}, Timeslice: 50 * clock.Microsecond,
			Files: []guest.FileImage{
				{Path: "/", Ino: 1, Dir: true},
				{Path: "/app.db", Ino: 2, Dirty: true, Data: []byte("payload bytes")},
			},
			Procs: []guest.ProcImage{
				{
					PID: 1, Parent: 0, Affinity: -1, PCID: 0x101,
					Brk: 0x1000000, NextFD: 4, MmapCursor: 0x7f0000001000, HeapVMA: 0,
					FDs: []guest.FDImage{{FD: 3, Path: "/app.db", Pos: 13}},
					VMAs: []guest.VMAImage{
						{Start: 0x1000000, End: 0x1010000, Prot: guest.ProtRead | guest.ProtWrite},
						{Start: 0x7f0000000000, End: 0x7f0000001000, Prot: guest.ProtRead,
							HasFile: true, Path: "/app.db"},
					},
					Resident: []guest.PageImage{
						{VA: 0x1000000, Accessed: true, Dirty: true},
						{VA: 0x7f0000000000, Accessed: true},
					},
				},
				{PID: 3, Parent: 1, Affinity: -1, Exited: true, ExitCode: 7, HeapVMA: -1},
			},
		},
		VCPUs: []VCPUImage{
			{ID: 0, PCID: 0x101, PKRU: 0,
				TLB: []TLBSlotImage{{PCID: 0x101, VA: 0x1000000}}},
			{ID: 1, PCID: 0x102, KernelMode: true},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	s := sample()
	blob := Encode(s)
	if len(blob) != Size(s) {
		t.Fatalf("Size = %d, encoded %d", Size(s), len(blob))
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	b2 := Encode(got)
	if string(b2) != string(blob) {
		t.Fatal("re-encode of decode differs")
	}
	if got.Fingerprint != s.Fingerprint || got.Config.Runtime != "CKI-BM" {
		t.Fatalf("header fields lost: %+v", got)
	}
	if len(got.Image.Procs) != 2 || !got.Image.Procs[1].Exited {
		t.Fatalf("procs lost: %+v", got.Image.Procs)
	}
	if got.Image.Procs[0].HeapVMA != 0 || got.Image.Procs[1].HeapVMA != -1 {
		t.Fatal("heap VMA index lost")
	}
	if string(got.Image.Files[1].Data) != "payload bytes" {
		t.Fatal("file data lost")
	}
	if len(got.VCPUs) != 2 || got.VCPUs[0].TLB[0].VA != 0x1000000 || !got.VCPUs[1].KernelMode {
		t.Fatalf("vcpu state lost: %+v", got.VCPUs)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, b := Encode(sample()), Encode(sample())
	if string(a) != string(b) {
		t.Fatal("two encodes of equal snapshots differ")
	}
}

// TestDecodeRejectsDamage: every single-bit flip and every truncation
// point must be rejected — by checksum, magic, or bounds check — and
// never panic.
func TestDecodeRejectsDamage(t *testing.T) {
	blob := Encode(sample())
	for off := 0; off < len(blob); off++ {
		bad := append([]byte(nil), blob...)
		bad[off] ^= 1 << uint(off%8)
		if _, err := Decode(bad); err == nil {
			t.Fatalf("bit flip at offset %d accepted", off)
		}
	}
	for n := 0; n < len(blob); n++ {
		if _, err := Decode(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func TestDecodeRejectsTrailing(t *testing.T) {
	blob := Encode(sample())
	// Appending bytes breaks the checksum (it now covers the old
	// trailer), so any error is fine — but it must not be accepted.
	if _, err := Decode(append(append([]byte(nil), blob...), 0, 0, 0, 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrMagic) {
		t.Fatalf("nil: %v", err)
	}
	if _, err := Decode([]byte(Magic)); !errors.Is(err, ErrTrunc) {
		t.Fatalf("magic only: %v", err)
	}
	if _, err := Decode([]byte("NOTASNAPxxxxxxxxxxxx")); !errors.Is(err, ErrMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	blob := Encode(sample())
	blob[len(blob)/2] ^= 0xff
	if _, err := Decode(blob); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt body: %v", err)
	}

	// Every failure is positioned. In sample(), Config.Nested (a bool)
	// sits at 8 (magic) + 1 (kind) + 4+6 ("CKI-BM") = 19, and the
	// run-queue count at 19 + 1 + 5*8 + 6 bools + 2*8 + 6*8 = 130.
	const nestedOff, runQueueOff = 19, 130
	good := Encode(sample())
	sealedEnd := len(good) - 8
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
		want   error
		off    int
	}{
		{"bad magic", func(b []byte) []byte { b[7] = 'X'; return b }, ErrMagic, 7},
		{"short header", func(b []byte) []byte { return b[:len(Magic)+3] }, ErrTrunc, len(Magic) + 3},
		{"torn trailer", func(b []byte) []byte { return b[:len(b)-3] }, ErrChecksum, sealedEnd - 3},
		{"flipped payload byte", func(b []byte) []byte { b[sealedEnd/2] ^= 0x40; return b }, ErrChecksum, sealedEnd},
		{"trailing bytes", func(b []byte) []byte {
			return reseal(append(b[:sealedEnd:sealedEnd], 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
		}, ErrTrailing, sealedEnd},
		{"truncated field", func(b []byte) []byte { return reseal(append(b[:100:100], make([]byte, 8)...)) }, ErrTrunc, 98},
		{"forged count", func(b []byte) []byte {
			b[runQueueOff], b[runQueueOff+1], b[runQueueOff+2], b[runQueueOff+3] = 0xff, 0xff, 0xff, 0x7f
			return reseal(b)
		}, ErrTrunc, runQueueOff},
		{"non-0/1 bool", func(b []byte) []byte { b[nestedOff] = 2; return reseal(b) }, ErrEncoding, nestedOff},
	} {
		_, err := Decode(tc.mutate(append([]byte(nil), good...)))
		var we *wire.Error
		if !errors.As(err, &we) || !errors.Is(err, tc.want) || we.Off != tc.off {
			t.Errorf("%s: got %v, want %v at offset %d", tc.name, err, tc.want, tc.off)
		}
	}
}

// TestCountGuard: a forged field claiming an enormous element count
// must fail fast on the over-allocation guard instead of allocating.
// The trailing checksum is resealed after each forgery so the parser —
// not the integrity check — is what the forged bytes reach. Every
// 4-byte window is forged; windows that land on non-count fields may
// legally still decode, but none may panic or allocate unboundedly.
func TestCountGuard(t *testing.T) {
	blob := Encode(sample())
	for off := len(Magic); off+4 <= len(blob)-8; off++ {
		bad := append([]byte(nil), blob...)
		bad[off], bad[off+1], bad[off+2], bad[off+3] = 0xff, 0xff, 0xff, 0x7f
		reseal(bad)
		_, _ = Decode(bad)
	}
}

// reseal rewrites the trailing checksum so decoding exercises the
// parser, not the integrity check.
func reseal(blob []byte) []byte {
	binary.LittleEndian.PutUint64(blob[len(blob)-8:], wire.FNV64a(blob[:len(blob)-8]))
	return blob
}

func TestDescribe(t *testing.T) {
	d := sample().Describe()
	for _, want := range []string{"CKI-BM", "procs"} {
		if !strings.Contains(d, want) {
			t.Fatalf("Describe() = %q, missing %q", d, want)
		}
	}
}
