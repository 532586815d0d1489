package wire

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"testing"
	"testing/quick"
)

// TestFNV64aMatchesStdlib: FNV64a over bytes or a string, and a chain of
// word folds, equal hash/fnv's New64a over the same bytes.
func TestFNV64aMatchesStdlib(t *testing.T) {
	ref := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	if err := quick.Check(func(b []byte) bool {
		return FNV64a(b) == ref(b) && FNV64a(string(b)) == ref(b)
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(words []uint64) bool {
		h, b := Offset64, []byte(nil)
		for _, w := range words {
			h = Fold(h, w)
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return h == ref(b)
	}, nil); err != nil {
		t.Error(err)
	}
}

const magic = "TEST\x00\x01"

// fields writes one of every field kind.
func fields(w *Writer) {
	w.U8(0xab)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(1<<63 | 5)
	w.F64(-2.5)
	w.Bool(true)
	w.Str16("sixteen")
	w.Str32("thirty-two")
	w.Bytes32([]byte{1, 2, 3})
	w.U32(2) // a count of two u16 elements
	w.U16(7)
	w.U16(9)
}

func TestRoundTrip(t *testing.T) {
	w := NewWriter([]byte("prefix"), magic)
	fields(&w)
	blob := w.Seal()[len("prefix"):]
	r, err := NewSealedReader(blob, magic)
	if err != nil {
		t.Fatal(err)
	}
	if r.U8() != 0xab || r.U16() != 0xbeef || r.U32() != 0xdeadbeef || r.U64() != 1<<63|5 ||
		r.F64() != -2.5 || !r.Bool() || r.Str16() != "sixteen" || r.Str32() != "thirty-two" ||
		string(r.Bytes32()) != "\x01\x02\x03" {
		t.Fatal("field values lost")
	}
	if n := r.Count(2); n != 2 || r.U16() != 7 || r.U16() != 9 {
		t.Fatal("counted elements lost")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderErrors: the Reader checks magic, then length, then trailer,
// then each field, and reports the first failure at its offset.
func TestReaderErrors(t *testing.T) {
	w := NewWriter(nil, magic)
	w.Bool(true)
	w.U32(3) // count of 8-byte elements; only one follows
	w.U64(0)
	good := w.Seal()
	reseal := func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[len(b)-8:], FNV64a(b[:len(b)-8]))
		return b
	}
	read := func(r Reader) error {
		r.Bool()
		for n := r.Count(8); n > 0; n-- {
			r.U64()
		}
		return r.Done()
	}
	for _, tc := range []struct {
		name string
		data []byte
		want error
		off  int
	}{
		{"empty", nil, ErrMagic, 0},
		{"magic prefix", []byte("TE"), ErrMagic, 2},
		{"bad magic", append([]byte("TEST\x00\x02"), good[6:]...), ErrMagic, 5},
		{"no trailer", []byte(magic + "1234567"), ErrTrunc, 13},
		{"torn trailer", good[:len(good)-1], ErrChecksum, len(good) - 9},
		{"forged count", good, ErrTrunc, 7},
		{"bad bool", reseal(append([]byte(magic+"\x02"), good[7:]...)), ErrEncoding, 6},
		{"trailing", reseal(append([]byte(magic+"\x01\x00\x00\x00\x00"), 0, 0, 0, 0, 0, 0, 0, 0, 0)), ErrTrailing, 11},
	} {
		r, err := NewSealedReader(tc.data, magic)
		if err == nil {
			err = read(r)
		}
		var we *Error
		if !errors.As(err, &we) || !errors.Is(err, tc.want) || we.Off != tc.off || we.Format != "TEST" {
			t.Errorf("%s: got %v, want %v at offset %d", tc.name, err, tc.want, tc.off)
		}
	}
}

// TestWriterAllocs: a Writer over a warm buffer appends a full field
// set, and seals it, with no allocation.
func TestWriterAllocs(t *testing.T) {
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() {
		w := NewWriter(buf[:0], magic)
		fields(&w)
		buf = w.Seal()
	}); n != 0 {
		t.Fatalf("warm Writer allocs/op = %v, want 0", n)
	}
}
