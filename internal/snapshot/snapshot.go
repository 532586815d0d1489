// Package snapshot defines CKISNAP1, the versioned, checksummed
// checkpoint image of one secure container.
//
// A snapshot serializes the container's logical machine state — the
// guest kernel image (processes, VMAs, resident pages with their
// accessed/dirty bits, the tmpfs), the runtime configuration needed to
// boot an identical replacement, per-vCPU register state, and the
// user-range TLB contents — together with the canonical PFN-isomorphic
// fingerprint taken at capture time (audit.Canon). The restore path in
// internal/backends boots a fresh container from the configuration and
// rebuilds the image through the runtime's own paravirt hooks, so the
// bytes here never encode raw page-table frames: page tables are
// reconstructed through the mediated PTE path and re-verified against
// Fingerprint.
//
// The format is deliberately hostile-input-safe: it is an internal/wire
// sealed frame (fixed magic, trailing FNV-64a checksum, bounds-checked
// field reads), and element counts are capped by the input length.
// Truncated, torn-write and bit-flipped images are rejected with a
// *wire.Error naming the offset; Decode never panics and never
// allocates more than a small multiple of len(data).
package snapshot

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/guest"
	"repro/internal/wire"
)

// Magic identifies a CKISNAP1 image (the version is part of the magic;
// an incompatible future layout bumps it to CKISNAP2).
const Magic = "CKISNAP1"

// Decode errors: every Decode failure is a *wire.Error naming the
// offset, and unwraps to one of these.
var (
	ErrMagic    = wire.ErrMagic
	ErrChecksum = wire.ErrChecksum
	ErrTrunc    = wire.ErrTrunc
	ErrTrailing = wire.ErrTrailing
	ErrEncoding = wire.ErrEncoding
)

// TLBSlotImage is one cached user-range translation. Only the tag is
// stored: the restore path re-derives the entry by translating VA
// through the rebuilt tables, so a snapshot can never smuggle a stale
// or forged physical frame into a TLB.
type TLBSlotImage struct {
	PCID uint16
	VA   uint64
}

// VCPUImage is one virtual CPU's architectural state plus the
// container-owned entries of its TLB.
type VCPUImage struct {
	ID         int
	PCID       uint16
	KernelMode bool
	PKRU       uint32
	TLB        []TLBSlotImage
}

// Config is the runtime configuration the restore path boots the
// replacement container with (mirrors backends.Options without the
// import cycle).
type Config struct {
	Kind              uint8
	Runtime           string
	Nested            bool
	NumVCPU           int
	HostFrames        int
	GuestFrames       int
	SegmentFrames     int
	TLBEntries        int
	EPTHugePages      bool
	WoOPT2            bool
	WoOPT3            bool
	EmulatePVMSyscall bool
	HardenKSMGate     bool
	DesignPKU         bool
}

// Snapshot is one decoded CKISNAP1 image.
type Snapshot struct {
	Config      Config
	ContainerID int
	// Fingerprint is the canonical PFN-isomorphic machine fingerprint
	// at capture time; restore verifies the rebuilt container against it.
	Fingerprint uint64
	Image       guest.Image
	VCPUs       []VCPUImage
}

// Encode serializes the snapshot: magic, payload, trailing checksum.
// Encoding is deterministic — the same Snapshot always yields the same
// bytes — because every slice in guest.Image is sorted by construction.
func Encode(s *Snapshot) []byte {
	return EncodeTo(s, make([]byte, 0, 1024))
}

// EncodeTo appends the encoded snapshot to buf and returns the
// extended slice, exactly as append would. Reusing a capacious buffer
// makes the steady state allocation-free — the serverless churn loop
// encodes the same template image once per fork generation, and a
// wallclock gate pins the zero-alloc property.
func EncodeTo(s *Snapshot, buf []byte) []byte {
	w := wire.NewWriter(buf, Magic)
	c := &s.Config
	w.U8(c.Kind)
	w.Str32(c.Runtime)
	w.Bool(c.Nested)
	w.U64(uint64(c.NumVCPU))
	w.U64(uint64(c.HostFrames))
	w.U64(uint64(c.GuestFrames))
	w.U64(uint64(c.SegmentFrames))
	w.U64(uint64(c.TLBEntries))
	w.Bool(c.EPTHugePages)
	w.Bool(c.WoOPT2)
	w.Bool(c.WoOPT3)
	w.Bool(c.EmulatePVMSyscall)
	w.Bool(c.HardenKSMGate)
	w.Bool(c.DesignPKU)
	w.U64(uint64(s.ContainerID))
	w.U64(s.Fingerprint)

	img := &s.Image
	w.U64(uint64(img.ContainerID))
	w.U64(uint64(img.NextPID))
	w.U64(uint64(img.NextASID))
	w.U64(img.NextIno)
	w.U64(uint64(img.CurPID))
	w.U64(uint64(img.Timeslice))
	w.U32(uint32(len(img.RunQueue)))
	for _, pid := range img.RunQueue {
		w.U64(uint64(pid))
	}
	w.U32(uint32(len(img.Files)))
	for i := range img.Files {
		f := &img.Files[i]
		w.Str32(f.Path)
		w.U64(f.Ino)
		w.Bool(f.Dir)
		w.Bool(f.Dirty)
		w.Bytes32(f.Data)
	}
	w.U32(uint32(len(img.Procs)))
	for i := range img.Procs {
		p := &img.Procs[i]
		w.U64(uint64(p.PID))
		w.U64(uint64(p.Parent))
		w.U64(uint64(p.Affinity))
		w.Bool(p.Exited)
		w.U64(uint64(p.ExitCode))
		w.U16(p.PCID)
		w.U64(p.Brk)
		w.U64(uint64(p.NextFD))
		w.U64(p.MmapCursor)
		w.U64(uint64(p.HeapVMA))
		w.U32(uint32(len(p.FDs)))
		for _, fd := range p.FDs {
			w.U64(uint64(fd.FD))
			w.Str32(fd.Path)
			w.U64(fd.Pos)
			w.Bool(fd.Append)
		}
		w.U32(uint32(len(p.VMAs)))
		for _, v := range p.VMAs {
			w.U64(v.Start)
			w.U64(v.End)
			w.U64(uint64(v.Prot))
			w.Bool(v.HasFile)
			w.Str32(v.Path)
			w.U64(v.Off)
			w.Bool(v.Huge)
		}
		w.U32(uint32(len(p.Resident)))
		for _, pg := range p.Resident {
			w.U64(pg.VA)
			w.Bool(pg.Accessed)
			w.Bool(pg.Dirty)
		}
	}
	w.U32(uint32(len(s.VCPUs)))
	for i := range s.VCPUs {
		v := &s.VCPUs[i]
		w.U64(uint64(v.ID))
		w.U16(v.PCID)
		w.Bool(v.KernelMode)
		w.U32(v.PKRU)
		w.U32(uint32(len(v.TLB)))
		for _, t := range v.TLB {
			w.U16(t.PCID)
			w.U64(t.VA)
		}
	}
	return w.Seal()
}

// Decode parses and validates a CKISNAP1 image.
func Decode(data []byte) (*Snapshot, error) {
	r, err := wire.NewSealedReader(data, Magic)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{}
	c := &s.Config
	c.Kind = r.U8()
	c.Runtime = r.Str32()
	c.Nested = r.Bool()
	c.NumVCPU = int(r.U64())
	c.HostFrames = int(r.U64())
	c.GuestFrames = int(r.U64())
	c.SegmentFrames = int(r.U64())
	c.TLBEntries = int(r.U64())
	c.EPTHugePages = r.Bool()
	c.WoOPT2 = r.Bool()
	c.WoOPT3 = r.Bool()
	c.EmulatePVMSyscall = r.Bool()
	c.HardenKSMGate = r.Bool()
	c.DesignPKU = r.Bool()
	s.ContainerID = int(r.U64())
	s.Fingerprint = r.U64()

	img := &s.Image
	img.ContainerID = int(r.U64())
	img.NextPID = int(r.U64())
	img.NextASID = int(r.U64())
	img.NextIno = r.U64()
	img.CurPID = int(r.U64())
	img.Timeslice = clock.Time(r.U64())
	if n := r.Count(8); n > 0 {
		img.RunQueue = make([]int, 0, n)
		for i := 0; i < n; i++ {
			img.RunQueue = append(img.RunQueue, int(r.U64()))
		}
	}
	if n := r.Count(14); n > 0 { // path(4) + ino(8) + 2 bools + data(4) minus overlap
		img.Files = make([]guest.FileImage, 0, n)
		for i := 0; i < n; i++ {
			img.Files = append(img.Files, guest.FileImage{
				Path: r.Str32(), Ino: r.U64(), Dir: r.Bool(), Dirty: r.Bool(),
				Data: r.Bytes32(),
			})
		}
	}
	if n := r.Count(70); n > 0 { // fixed proc header size
		img.Procs = make([]guest.ProcImage, 0, n)
		for i := 0; i < n; i++ {
			var p guest.ProcImage
			p.PID = int(r.U64())
			p.Parent = int(r.U64())
			p.Affinity = int(r.U64())
			p.Exited = r.Bool()
			p.ExitCode = int(r.U64())
			p.PCID = r.U16()
			p.Brk = r.U64()
			p.NextFD = int(r.U64())
			p.MmapCursor = r.U64()
			p.HeapVMA = int(r.U64())
			if m := r.Count(21); m > 0 { // fd(8)+path(4)+pos(8)+append(1)
				p.FDs = make([]guest.FDImage, 0, m)
				for j := 0; j < m; j++ {
					p.FDs = append(p.FDs, guest.FDImage{
						FD: int(r.U64()), Path: r.Str32(), Pos: r.U64(), Append: r.Bool(),
					})
				}
			}
			if m := r.Count(38); m > 0 { // start+end+prot+hasfile+path+off+huge
				p.VMAs = make([]guest.VMAImage, 0, m)
				for j := 0; j < m; j++ {
					p.VMAs = append(p.VMAs, guest.VMAImage{
						Start: r.U64(), End: r.U64(), Prot: guest.Prot(r.U64()),
						HasFile: r.Bool(), Path: r.Str32(), Off: r.U64(), Huge: r.Bool(),
					})
				}
			}
			if m := r.Count(10); m > 0 { // va(8)+2 bools
				p.Resident = make([]guest.PageImage, 0, m)
				for j := 0; j < m; j++ {
					p.Resident = append(p.Resident, guest.PageImage{
						VA: r.U64(), Accessed: r.Bool(), Dirty: r.Bool(),
					})
				}
			}
			img.Procs = append(img.Procs, p)
		}
	}
	if n := r.Count(19); n > 0 { // id(8)+pcid(2)+mode(1)+pkru(4)+tlb len(4)
		s.VCPUs = make([]VCPUImage, 0, n)
		for i := 0; i < n; i++ {
			var v VCPUImage
			v.ID = int(r.U64())
			v.PCID = r.U16()
			v.KernelMode = r.Bool()
			v.PKRU = r.U32()
			if m := r.Count(10); m > 0 { // pcid(2)+va(8)
				v.TLB = make([]TLBSlotImage, 0, m)
				for j := 0; j < m; j++ {
					v.TLB = append(v.TLB, TLBSlotImage{PCID: r.U16(), VA: r.U64()})
				}
			}
			s.VCPUs = append(s.VCPUs, v)
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

// Size reports the encoded size of a snapshot in bytes.
func Size(s *Snapshot) int { return len(Encode(s)) }

// Describe renders a one-line human summary ("CKI id=3 procs=2 ...").
func (s *Snapshot) Describe() string {
	pages := s.Image.ResidentPages()
	return fmt.Sprintf("%s container=%d procs=%d files=%d resident=%d fingerprint=%#016x",
		s.Config.Runtime, s.ContainerID, len(s.Image.Procs), len(s.Image.Files), pages, s.Fingerprint)
}
