package bench

import (
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// step is one segment of a test request chain: a timed kind with its
// duration, or a marker (zero duration).
type step struct {
	kind string
	dur  clock.Time
}

// chain builds a causal segment chain for req that arrives at t=100,
// runs steps back to back and ends with a completion.
func chain(req trace.RequestID, steps ...step) []trace.Segment {
	at := clock.Time(100)
	segs := []trace.Segment{{Req: req, ID: 0, Parent: -1, Kind: trace.SegArrival, At: at}}
	add := func(kind string, dur clock.Time) {
		n := len(segs)
		segs = append(segs, trace.Segment{Req: req, ID: n, Parent: n - 1, Kind: kind, At: at, Dur: dur})
		at += dur
	}
	for _, s := range steps {
		add(s.kind, s.dur)
	}
	add(trace.SegComplete, 0)
	return segs
}

// TestDecompose: every timed segment kind lands in its component,
// placement and evict markers are counted, a rejection conserves at
// zero latency, and a chain that does not tile its span is an error
// naming the request.
func TestDecompose(t *testing.T) {
	const req = trace.RequestID(0xabc)
	reject := chain(req)
	reject[1].Kind = trace.SegReject
	gap := chain(req, step{trace.SegQueue, 5}, step{trace.SegService, 9})
	gap[2].At++

	for _, tc := range []struct {
		name    string
		segs    []trace.Segment
		want    TailComponents
		wantErr bool
	}{
		{"queue", chain(req, step{trace.SegQueue, 5}), TailComponents{QueuePs: 5, TotalPs: 5}, false},
		{"boot", chain(req, step{trace.SegBoot, 7}), TailComponents{BootPs: 7, TotalPs: 7}, false},
		{"fork_boot", chain(req, step{trace.SegForkBoot, 11}), TailComponents{BootPs: 11, TotalPs: 11}, false},
		{"warm_restore", chain(req, step{trace.SegWarmRestore, 13}), TailComponents{WarmRestorePs: 13, TotalPs: 13}, false},
		{"service", chain(req, step{trace.SegService, 17}), TailComponents{ServicePs: 17, TotalPs: 17}, false},
		{"storm_redo", chain(req, step{trace.SegStormRedo, 19}), TailComponents{StormRedoPs: 19, TotalPs: 19}, false},
		{"evicted and restored", chain(req,
			step{trace.SegPlacement, 0}, step{trace.SegBoot, 3}, step{trace.SegStormRedo, 2},
			step{trace.SegEvict, 0}, step{trace.SegQueue, 4}, step{trace.SegPlacement, 0},
			step{trace.SegWarmRestore, 6}, step{trace.SegService, 8}),
			TailComponents{QueuePs: 4, BootPs: 3, WarmRestorePs: 6, ServicePs: 8, StormRedoPs: 2,
				TotalPs: 23, Placements: 2, Evictions: 1}, false},
		{"rejected", reject, TailComponents{}, false},
		{"gap", gap, TailComponents{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := decompose(tc.segs)
			if tc.wantErr {
				if err == nil || !strings.Contains(err.Error(), req.String()) {
					t.Fatalf("decompose = %+v, %v; want an error naming request %s", got, err, req)
				}
				return
			}
			if err != nil || got != tc.want {
				t.Fatalf("decompose = %+v, %v; want %+v", got, err, tc.want)
			}
		})
	}
}

// TestCellShapeStorm pins each experiment's storm: fleet and tail take
// at least one node down, slo takes 3/5 of the nodes rounded down.
func TestCellShapeStorm(t *testing.T) {
	const us = clock.Microsecond
	for _, tc := range []struct {
		name             string
		shape            cellShape
		nodes, evict     int
		evictAt, downFor clock.Time
	}{
		{"fleet", fleetShape, 5, 1, 1200 * us, 300 * us},
		{"fleet", fleetShape, 50, 5, 1200 * us, 300 * us},
		{"tail", tailShape, 3, 1, 1200 * us, 300 * us},
		{"tail", tailShape, 20, 5, 1200 * us, 300 * us},
		{"slo", sloShape, 1, 0, 800 * us, 600 * us},
		{"slo", sloShape, 20, 12, 800 * us, 600 * us},
	} {
		costs := fleet.RuntimeCosts{Boot: 40 * us, Service: 10 * us}
		cfg := tc.shape.config(tc.nodes, costs, nil, 1, nil, 2400*us)
		tc.shape.storm(&cfg)
		lifetime := costs.Boot + clock.Time(tc.shape.meanReqs)*costs.Service
		if cfg.EvictNodes != tc.evict || cfg.EvictAt != tc.evictAt || cfg.DownFor != tc.downFor || cfg.SnapshotAge != lifetime/4 {
			t.Errorf("%s, %d nodes: storm evicts %d at %v for %v (snapshot age %v), want %d at %v for %v (%v)",
				tc.name, tc.nodes, cfg.EvictNodes, cfg.EvictAt, cfg.DownFor, cfg.SnapshotAge,
				tc.evict, tc.evictAt, tc.downFor, lifetime/4)
		}
	}
}
