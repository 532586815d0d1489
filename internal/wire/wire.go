// Package wire is how this repository frames and checksums bytes: one
// FNV-64a, and one little-endian field codec shared by the three binary
// formats (CKISNAP1 snapshots, CKITS1 time series, CKIAUD1 audit logs).
//
// A frame is a fixed magic, then fields, then — for sealed formats — a
// trailing u64 FNV-64a of everything before it. Every integer is
// little-endian; strings and byte slices carry a u16 or u32 length
// prefix; bools are one strict 0/1 byte. A Reader checks the magic,
// then the length, then the trailer, then bounds-checks every field
// read, and reports the first failure as one *Error naming the offset.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// FNV-64a parameters.
const (
	Offset64 uint64 = 0xcbf29ce484222325
	Prime64  uint64 = 0x100000001b3
)

// FNV64a hashes data with FNV-64a.
func FNV64a[T string | []byte](data T) uint64 {
	h := Offset64
	for i := 0; i < len(data); i++ {
		h ^= uint64(data[i])
		h *= Prime64
	}
	return h
}

// Fold continues the FNV-64a state h over the 8 little-endian bytes of v.
func Fold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= Prime64
		v >>= 8
	}
	return h
}

// Decode failures; every *Error unwraps to one of these.
var (
	ErrMagic    = errors.New("bad magic")
	ErrTrunc    = errors.New("truncated")
	ErrChecksum = errors.New("checksum mismatch (torn write or corruption)")
	ErrTrailing = errors.New("trailing bytes after payload")
	ErrEncoding = errors.New("malformed field encoding")
)

// Error is a decode failure at byte offset Off of the input.
type Error struct {
	// Format is the printable part of the frame's magic ("CKISNAP1").
	Format string
	Off    int
	Err    error
}

// Error renders "FORMAT: reason at offset N".
func (e *Error) Error() string {
	return fmt.Sprintf("%s: %v at offset %d", e.Format, e.Err, e.Off)
}

// Unwrap returns the cause: a sentinel, or an error wrapping one.
func (e *Error) Unwrap() error { return e.Err }

// format names a frame by its magic up to the first control byte.
func format(magic string) string {
	for i := 0; i < len(magic); i++ {
		if magic[i] < ' ' {
			return magic[:i]
		}
	}
	return magic
}

// Writer appends one frame of little-endian fields to a byte slice.
type Writer struct {
	buf   []byte
	start int
}

// NewWriter starts a frame at the end of buf by appending magic.
func NewWriter(buf []byte, magic string) Writer {
	return Writer{buf: append(buf, magic...), start: len(buf)}
}

// U8 appends v.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends v little-endian.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends v little-endian.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends v little-endian.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// F64 appends the IEEE 754 bits of v little-endian.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes v as one 0/1 byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Str16 writes s with a u16 length prefix, truncated to 64 KiB-1 bytes.
func (w *Writer) Str16(s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	w.U16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}

// Str32 writes s with a u32 length prefix.
func (w *Writer) Str32(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes32 writes b with a u32 length prefix.
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Bytes returns the buffer with the frame appended, unsealed.
func (w *Writer) Bytes() []byte { return w.buf }

// Seal appends the FNV-64a trailer over the frame (magic included) and
// returns the buffer.
func (w *Writer) Seal() []byte {
	w.U64(FNV64a(w.buf[w.start:]))
	return w.buf
}

// Reader reads little-endian fields from one frame. The first failed
// read is recorded as an *Error; every later read returns zero.
type Reader struct {
	data   []byte
	off    int
	format string
	err    error
}

// NewReader checks that data starts with magic and returns a Reader
// positioned after it.
func NewReader(data []byte, magic string) (Reader, error) {
	r := Reader{data: data, format: format(magic)}
	for i := 0; i < len(magic); i++ {
		if i >= len(data) || data[i] != magic[i] {
			r.Fail(i, ErrMagic)
			return r, r.err
		}
	}
	r.off = len(magic)
	return r, nil
}

// NewSealedReader is NewReader for a sealed frame: it also checks that
// data holds the 8-byte trailer and that the trailer matches, and the
// Reader then covers everything before the trailer.
func NewSealedReader(data []byte, magic string) (Reader, error) {
	r, err := NewReader(data, magic)
	if err != nil {
		return r, err
	}
	body := len(data) - 8
	if body < len(magic) {
		r.Fail(len(data), ErrTrunc)
		return r, r.err
	}
	if FNV64a(data[:body]) != binary.LittleEndian.Uint64(data[body:]) {
		r.Fail(body, ErrChecksum)
		return r, r.err
	}
	r.data = data[:body]
	return r, nil
}

// Fail records err at offset off unless an earlier failure is recorded.
func (r *Reader) Fail(off int, err error) {
	if r.err == nil {
		r.err = &Error{Format: r.format, Off: off, Err: err}
	}
}

// Err returns the first recorded failure.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.data) - r.off }

// Done returns the first recorded failure, or ErrTrailing if bytes are
// left unread.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.data) {
		r.Fail(r.off, ErrTrailing)
	}
	return r.err
}

// take consumes the next n bytes of the field that starts at off.
func (r *Reader) take(off, n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Len() < n {
		r.Fail(off, ErrTrunc)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// zeros stands in for a fixed-width field after a failure.
var zeros [8]byte

// fixed consumes an n-byte field (n ≤ 8), reading zeros after a failure.
func (r *Reader) fixed(n int) []byte {
	if b := r.take(r.off, n); b != nil {
		return b
	}
	return zeros[:n]
}

// U8 reads one byte.
func (r *Reader) U8() uint8 { return r.fixed(1)[0] }

// U16 reads a little-endian u16.
func (r *Reader) U16() uint16 { return binary.LittleEndian.Uint16(r.fixed(2)) }

// U32 reads a little-endian u32.
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }

// U64 reads a little-endian u64.
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// F64 reads a little-endian IEEE 754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool is strict: only 0 and 1 are valid, so every accepted frame is in
// canonical form (decode → encode is the identity).
func (r *Reader) Bool() bool {
	off := r.off
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(off, ErrEncoding)
		return false
	}
}

// Str16 reads a u16-length string. Like every length-prefixed field, a
// string that does not fit fails at its prefix.
func (r *Reader) Str16() string {
	off := r.off
	return string(r.take(off, int(r.U16())))
}

// Str32 reads a u32-length string.
func (r *Reader) Str32() string {
	off := r.off
	return string(r.take(off, int(r.U32())))
}

// Bytes32 reads a u32-length byte slice into a fresh copy (nil when
// empty).
func (r *Reader) Bytes32() []byte {
	off := r.off
	return append([]byte(nil), r.take(off, int(r.U32()))...)
}

// Count reads a u32 element count and rejects values no well-formed
// frame could carry: each element occupies at least minSize bytes, so
// the count is capped by the bytes remaining. This is the
// over-allocation guard — a hostile count cannot make a decoder
// allocate beyond a small multiple of the input size.
func (r *Reader) Count(minSize int) int {
	off := r.off
	n := uint64(r.U32())
	if r.err != nil {
		return 0
	}
	if n*uint64(minSize) > uint64(r.Len()) {
		r.Fail(off, ErrTrunc)
		return 0
	}
	return int(n)
}
