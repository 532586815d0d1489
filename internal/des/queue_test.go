package des

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/clock"
)

// TestQueueMatchesStableSort: under any interleaving of pushes and
// pops, the queue pops exactly what a stable sort by (at, push order)
// of the pending events puts first. Times come from a range of eight
// so most pushes tie with an earlier one.
func TestQueueMatchesStableSort(t *testing.T) {
	type pending struct {
		at clock.Time
		id int
	}
	check := func(ops []uint8) bool {
		var q Queue[int]
		var ref []pending
		pushed := 0
		pop := func() bool {
			sort.SliceStable(ref, func(i, j int) bool { return ref[i].at < ref[j].at })
			at, id := q.Pop()
			want := ref[0]
			ref = ref[1:]
			return at == want.at && id == want.id
		}
		for _, op := range ops {
			if op%3 == 0 && len(ref) > 0 {
				if !pop() {
					return false
				}
				continue
			}
			at := clock.Time(op % 8)
			q.Push(at, pushed)
			ref = append(ref, pending{at, pushed})
			pushed++
		}
		for len(ref) > 0 {
			if q.Len() != len(ref) || !pop() {
				return false
			}
		}
		_, ok := q.Peek()
		return q.Len() == 0 && !ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQueuePushPopAllocFree: once the backing slice has grown, a
// Push+Pop pair allocates nothing.
func TestQueuePushPopAllocFree(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 64; i++ {
		q.Push(clock.Time(i%5), i)
	}
	at := clock.Time(0)
	if n := testing.AllocsPerRun(1000, func() {
		at++
		q.Push(at%7, 1)
		q.Pop()
	}); n != 0 {
		t.Fatalf("Push+Pop allocated %v objects per run, want 0", n)
	}
}
