package audit

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/clock"
	"repro/internal/wire"
)

// Binary log format v1, an unsealed internal/wire frame (no trailer:
// the log is streamed, so there is nothing to checksum before the end):
//
//	offset  size  field
//	0       8     magic "CKIAUD1\n"
//	8       4     metaLen (u32)
//	12      n     meta JSON (run descriptor)
//	12+n    40*k  fixed-size event records
//
// One record:
//
//	0   1  kind
//	1   1  vcpu
//	2   2  pcid
//	4   4  reserved (zero)
//	8   8  at (virtual time, ps, i64)
//	16  8  a
//	24  8  b
//	32  8  c
//
// Every field is deterministic under the virtual clock, so two logs of
// the same seeded run are byte-identical.

const (
	logMagic   = "CKIAUD1\n"
	recordSize = 40
)

// Meta describes the run that produced a log, with enough detail for
// ckireplay -live to re-execute it.
type Meta struct {
	// Kind of run: "ckirun" (one container, one workload) or "smp"
	// (the bench SMP scaling experiment).
	Kind string `json:"kind,omitempty"`
	// ckirun runs.
	Runtime   string `json:"runtime,omitempty"`
	Nested    bool   `json:"nested,omitempty"`
	Workload  string `json:"workload,omitempty"`
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// smp runs.
	Seed  uint64 `json:"seed,omitempty"`
	Scale int    `json:"scale,omitempty"`
}

// Log is a parsed audit log.
type Log struct {
	Meta   Meta
	Events []Event
}

// appendHeader starts a log in buf: magic, then meta as u32-length JSON.
func appendHeader(buf []byte, meta Meta) wire.Writer {
	mj, err := json.Marshal(meta)
	if err != nil {
		// Meta is a plain struct of scalars; this cannot fail.
		panic(err)
	}
	w := wire.NewWriter(buf, logMagic)
	w.Bytes32(mj)
	return w
}

// encodeRecord packs one event into buf (little-endian v1 layout). It
// writes at fixed offsets rather than through a wire.Writer because it
// is the streaming encoder's whole per-record cost.
func encodeRecord(buf *[recordSize]byte, e Event) {
	buf[0] = byte(e.Kind)
	buf[1] = e.VCPU
	binary.LittleEndian.PutUint16(buf[2:4], e.PCID)
	for i := 4; i < 8; i++ {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint64(buf[8:16], uint64(int64(e.At)))
	binary.LittleEndian.PutUint64(buf[16:24], e.A)
	binary.LittleEndian.PutUint64(buf[24:32], e.B)
	binary.LittleEndian.PutUint64(buf[32:40], e.C)
}

// Marshal encodes a log in the v1 binary format.
func Marshal(meta Meta, events []Event) []byte {
	// 256 bytes holds the header of every run this repository records.
	w := appendHeader(make([]byte, 0, 256+recordSize*len(events)), meta)
	out := w.Bytes()
	var rec [recordSize]byte
	for _, e := range events {
		encodeRecord(&rec, e)
		out = append(out, rec[:]...)
	}
	return out
}

// Marshal encodes the recorder's log in the v1 binary format.
func (r *Recorder) Marshal() []byte {
	if r == nil {
		return Marshal(Meta{}, nil)
	}
	return Marshal(r.Meta, r.events)
}

// EncodeTo streams the recorder's log to w in the v1 binary format,
// producing exactly the bytes Marshal would. The header is cached per
// Meta value and every record goes through the recorder's reused
// 40-byte buffer, so a warm EncodeTo allocates nothing.
func (r *Recorder) EncodeTo(w io.Writer) error {
	if r == nil {
		_, err := w.Write(Marshal(Meta{}, nil))
		return err
	}
	if r.hdr == nil || r.hdrMeta != r.Meta {
		hw := appendHeader(nil, r.Meta)
		r.hdr, r.hdrMeta = hw.Bytes(), r.Meta
	}
	if _, err := w.Write(r.hdr); err != nil {
		return err
	}
	for _, e := range r.events {
		encodeRecord(&r.encBuf, e)
		if _, err := w.Write(r.encBuf[:]); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile streams the recorder's log to path (same bytes as Marshal,
// without materializing the whole log in memory).
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := r.EncodeTo(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Unmarshal parses a v1 binary log. Every failure is a *wire.Error
// naming the offset.
func Unmarshal(data []byte) (*Log, error) {
	r, err := wire.NewReader(data, logMagic)
	if err != nil {
		return nil, err
	}
	var l Log
	if meta := r.Bytes32(); r.Err() == nil {
		if err := json.Unmarshal(meta, &l.Meta); err != nil {
			r.Fail(len(logMagic)+4, fmt.Errorf("%w: meta: %v", wire.ErrEncoding, err))
		}
	}
	l.Events = make([]Event, 0, r.Len()/recordSize)
	for r.Len() > 0 && r.Err() == nil {
		e := Event{Kind: Kind(r.U8()), VCPU: r.U8(), PCID: r.U16()}
		r.U32() // reserved
		e.At, e.A, e.B, e.C = clock.Time(r.U64()), r.U64(), r.U64(), r.U64()
		l.Events = append(l.Events, e)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return &l, nil
}

// ReadFile loads and parses a log file.
func ReadFile(path string) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Unmarshal(data)
}
