package guest_test

import (
	"runtime"
	"testing"

	"repro/internal/guest"
)

const (
	appendChunk = 256
	appendCount = 4096 // 1 MiB file
)

// appendFile creates path and fills it with appendCount writes of chunk.
func appendFile(tb testing.TB, k *guest.Kernel, path string, chunk []byte) {
	tb.Helper()
	fd, err := k.Open(path, true)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < appendCount; i++ {
		if _, err := k.Write(fd, chunk); err != nil {
			tb.Fatal(err)
		}
	}
	if err := k.Close(fd); err != nil {
		tb.Fatal(err)
	}
}

// Appends to a tmpfs file must cost host memory linear in the file
// size. An exact-size reallocation on every write past EOF copies the
// whole file each time and allocates ~2 GiB here.
func TestFileAppendAllocsLinear(t *testing.T) {
	k := runc(t).K
	chunk := make([]byte, appendChunk)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	appendFile(t, k, "/journal", chunk)
	runtime.ReadMemStats(&after)
	size := uint64(appendCount * appendChunk)
	if si, err := k.Stat("/journal"); err != nil || si.Size != size {
		t.Fatalf("Stat = %+v, %v; want size %d", si, err, size)
	}
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("appending %d B allocated %d B (%.1fx)", size, grew, float64(grew)/float64(size))
	if grew > 8*size {
		t.Errorf("allocated %.1fx the file size, want < 8x", float64(grew)/float64(size))
	}
}

// BenchmarkFileAppend builds a 1 MiB tmpfs file from 256 B appends per
// op; run with -benchmem to see the bytes allocated per file.
func BenchmarkFileAppend(b *testing.B) {
	k := runc(b).K
	chunk := make([]byte, appendChunk)
	b.SetBytes(appendCount * appendChunk)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		appendFile(b, k, "/f", chunk)
		if err := k.Unlink("/f"); err != nil {
			b.Fatal(err)
		}
	}
}
