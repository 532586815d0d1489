package fleet

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/des"
)

// loadCell is an open-loop cell at 90% of capacity on the CKI-BM cost
// row of the fleet experiment's calibration: 4 slots and a 16-deep
// queue per node, Poisson arrivals sized to about `arrivals`.
func loadCell(nodes int, sched Scheduler, arrivals int) Config {
	costs := RuntimeCosts{
		Boot:        522 * clock.Nanosecond,
		Service:     3005 * clock.Nanosecond,
		WarmRestore: 1324 * clock.Nanosecond,
	}
	const slots, meanReqs = 4, 8
	lifetime := costs.Boot + meanReqs*costs.Service
	rate := 0.9 * float64(nodes*slots) / lifetime.Seconds()
	horizon := clock.Time(float64(arrivals) / rate * float64(clock.Second))
	return Config{
		Nodes: nodes, SlotsPerNode: slots, QueueLimit: 16,
		Costs: costs, MeanReqs: meanReqs,
		Arrivals: des.PoissonArrivals(1, rate, horizon),
		Horizon:  horizon, Seed: 1, Sched: sched,
	}
}

// TestRunAllocsFlat: the event loop allocates nothing per event, so a
// run's allocations are set-up only and do not grow with the arrival
// count — at most one object per 100 arrivals on a 50-node cell.
func TestRunAllocsFlat(t *testing.T) {
	cfg := loadCell(50, Spread{}, 10000)
	var arrived int
	allocs := testing.AllocsPerRun(3, func() {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		arrived = res.Arrived
	})
	if limit := float64(arrived) / 100; allocs > limit {
		t.Fatalf("fleet.Run allocated %v objects for %d arrivals, want <= %v", allocs, arrived, limit)
	}
}

// BenchmarkFleetRun is the control plane's scaling curve: host time per
// arrival against fleet size, for both schedulers.
func BenchmarkFleetRun(b *testing.B) {
	for _, nodes := range []int{50, 200, 1000} {
		for _, sched := range []Scheduler{BinPack{}, Spread{}} {
			b.Run(fmt.Sprintf("nodes=%d/%s", nodes, sched.Name()), func(b *testing.B) {
				cfg := loadCell(nodes, sched, 20000)
				b.ReportAllocs()
				b.ResetTimer()
				arrived := 0
				for i := 0; i < b.N; i++ {
					res, err := Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					arrived += res.Arrived
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(arrived), "ns/arrival")
			})
		}
	}
}
