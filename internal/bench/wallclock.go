package bench

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/backends"
	"repro/internal/clock"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/smp"
	"repro/internal/snapshot"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// The wall-clock experiment measures the simulator itself: how fast the
// host executes the hot paths every simulated instruction crosses (TLB
// lookups, audit records, span emission, the shootdown protocol), and
// how much the parallel grid runner buys over sequential execution.
// Unlike every other experiment these numbers are host-dependent — the
// committed BENCH_wallclock artifact is a trajectory snapshot, not a
// byte-reproducible report, which is why it records the host core
// count alongside the measurements and why CI checks its schema rather
// than its bytes.

// WallclockBench is one hot-path micro-benchmark result.
type WallclockBench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// WallclockFlush is one point of the flush-vs-capacity regression
// curve: the cost of invalidating a 64-entry PCID out of a TLB of the
// given capacity. The curve must stay flat — flush cost scaling with
// capacity is the O(capacity) scan bug this experiment guards against.
type WallclockFlush struct {
	Capacity   int     `json:"capacity"`
	NsPerFlush float64 `json:"ns_per_flush"`
}

// WallclockSpeedup is the measured wall-clock gain of running one
// experiment's grid cells concurrently instead of sequentially.
type WallclockSpeedup struct {
	Experiment   string  `json:"experiment"`
	Cells        int     `json:"cells"`
	Parallel     int     `json:"parallel"`
	SequentialMs float64 `json:"sequential_ms"`
	ParallelMs   float64 `json:"parallel_ms"`
	Speedup      float64 `json:"speedup"`
}

// WallclockReport is the committed BENCH_wallclock artifact.
type WallclockReport struct {
	Scale           int                `json:"scale"`
	HostCPUs        int                `json:"host_cpus"`
	GoMaxProcs      int                `json:"gomaxprocs"`
	Benches         []WallclockBench   `json:"benches"`
	FlushByCapacity []WallclockFlush   `json:"flush_by_capacity"`
	Speedups        []WallclockSpeedup `json:"speedups"`
}

// WallclockOpts tunes the measurement effort.
type WallclockOpts struct {
	Scale     int           // experiment scale for the speedup section (min 1)
	Parallel  int           // worker count for the parallel leg (min 2; default 4)
	BenchTime time.Duration // per-micro-benchmark budget (default 100ms)
	Reps      int           // speedup repetitions, best-of (default 3)
	Seeds     int           // chaos sweep width (default 8)
}

func (o *WallclockOpts) defaults() {
	if o.Scale < 1 {
		o.Scale = 1
	}
	if o.Parallel < 2 {
		o.Parallel = 4
	}
	if o.BenchTime <= 0 {
		o.BenchTime = 100 * time.Millisecond
	}
	if o.Reps < 1 {
		o.Reps = 3
	}
	if o.Seeds < 1 {
		o.Seeds = 8
	}
}

// benchInit makes testing.Benchmark usable outside a test binary and
// pins the per-benchmark budget. testing.Init is idempotent, so this is
// safe inside `go test` processes too.
var benchInitOnce sync.Once

func benchInit(d time.Duration) {
	benchInitOnce.Do(testing.Init)
	if f := flag.Lookup("test.benchtime"); f != nil {
		_ = f.Value.Set(d.String())
	}
}

// runBench executes one micro-benchmark and folds it into a report row.
func runBench(name string, fn func(b *testing.B)) WallclockBench {
	r := testing.Benchmark(fn)
	return WallclockBench{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// wallclockEngine builds a bare n-vCPU SMP engine for the shootdown
// micro-benchmark (no container, no observers — the protocol alone).
func wallclockEngine(n int) (*smp.Engine, error) {
	costs := clock.DefaultCosts()
	m := mem.New(256)
	cpu := hw.NewCPU(0, true)
	unit := mmu.New(m, costs)
	cpu.SetTLBHooks(unit.Hooks())
	return smp.New(new(clock.Clock), costs, m, cpu, unit, n)
}

// measureWall times fn best-of-reps (minimum wall time, the standard
// way to strip scheduler noise from a throughput measurement).
func measureWall(reps int, fn func() error) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// RunWallclock measures the hot paths and the parallel-runner speedup.
func RunWallclock(opts WallclockOpts) (*WallclockReport, error) {
	opts.defaults()
	benchInit(opts.BenchTime)
	rep := &WallclockReport{
		Scale:      opts.Scale,
		HostCPUs:   runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	// Per-runtime flows: the trivial syscall and one full grid-cell
	// round (migrate + map/touch/unmap across 2 vCPUs).
	for _, s := range smpSpecs() {
		o := s.opts
		c, err := backends.New(s.kind, o)
		if err != nil {
			return nil, fmt.Errorf("wallclock: boot %v: %w", s.kind, err)
		}
		c.K.Getpid() // steady state
		rep.Benches = append(rep.Benches, runBench("getpid_flow/"+c.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.K.Getpid()
			}
		}))

		o2 := s.opts
		o2.NumVCPU = 2
		c2, err := backends.New(s.kind, o2)
		if err != nil {
			return nil, fmt.Errorf("wallclock: boot %v x2: %w", s.kind, err)
		}
		for i := 0; i < 4; i++ {
			if err := smpRequest(c2.K); err != nil {
				return nil, err
			}
		}
		var cellErr error
		rep.Benches = append(rep.Benches, runBench("smp_cell_round/"+c2.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for v := 0; v < 2; v++ {
					if err := c2.MigrateVCPU(v); err != nil {
						cellErr = err
						return
					}
					if err := smpRequest(c2.K); err != nil {
						cellErr = err
						return
					}
				}
			}
		}))
		if cellErr != nil {
			return nil, fmt.Errorf("wallclock: smp cell %v: %w", s.kind, cellErr)
		}
	}

	// The shootdown protocol, bare.
	e, err := wallclockEngine(8)
	if err != nil {
		return nil, err
	}
	sdSpec := smp.ShootdownSpec{Initiator: 0, Targets: e.Others(0, 8), PCID: 0x101, VA: 0x4000}
	var sdErr error
	rep.Benches = append(rep.Benches, runBench("shootdown/8vcpu", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Shootdown(sdSpec); err != nil {
				sdErr = err
				return
			}
		}
	}))
	if sdErr != nil {
		return nil, fmt.Errorf("wallclock: shootdown: %w", sdErr)
	}

	// TLB hot paths at default capacity.
	tl := tlb.New(tlb.DefaultCapacity)
	for i := 0; i < 2*tlb.DefaultCapacity; i++ {
		tl.Insert(1, uint64(i)<<mem.PageShift, tlb.Entry{PFN: mem.PFN(i)})
	}
	rep.Benches = append(rep.Benches,
		runBench("tlb/lookup_hit", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tl.Lookup(1, uint64(2*tlb.DefaultCapacity-1-i%1024)<<mem.PageShift)
			}
		}),
		runBench("tlb/insert_evict", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tl.Insert(1, uint64(2*tlb.DefaultCapacity+i)<<mem.PageShift, tlb.Entry{PFN: 1})
			}
		}),
		runBench("tlb/flush_page_reinsert", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				va := uint64(2*tlb.DefaultCapacity+i) << mem.PageShift
				tl.Insert(1, va, tlb.Entry{PFN: 1})
				tl.FlushPage(1, va)
			}
		}),
	)

	// Audit record emission (reserved recorder) and nil-observer span
	// emission — the two per-event observability costs.
	rep.Benches = append(rep.Benches,
		runBench("audit/record", func(b *testing.B) {
			r := audit.NewRecorder(new(clock.Clock))
			r.Reserve(b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Emit(audit.EvSyscall, 0, 0x101, uint64(i), 0, 0)
			}
		}),
		runBench("trace/span_nil", func(b *testing.B) {
			var r *trace.SpanRecorder
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.End(r.Begin("syscall"))
			}
		}),
	)

	// The fork-from-snapshot host hot paths: steady-state snapshot
	// encode into a reused buffer (the supervisor's per-round
	// checkpoint) and per-page digest resolution against the
	// content-addressed page store (one Lookup per restored page).
	sc, err := backends.New(backends.CKI, backends.Options{TLBEntries: serverlessTLBEntries})
	if err != nil {
		return nil, fmt.Errorf("wallclock: snapshot boot: %w", err)
	}
	if _, err := serverlessInit(sc.K, 1); err != nil {
		return nil, fmt.Errorf("wallclock: snapshot init: %w", err)
	}
	snap, err := backends.Checkpoint(sc)
	if err != nil {
		return nil, fmt.Errorf("wallclock: checkpoint: %w", err)
	}
	encBuf := make([]byte, 0, snapshot.Size(snap))
	rep.Benches = append(rep.Benches, runBench("snapshot/encode_to", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encBuf = snapshot.EncodeTo(snap, encBuf[:0])
		}
	}))
	ps := snapshot.NewPageStore(mem.New(1 << 12))
	const storeDigests = 512
	for d := uint64(0); d < storeDigests; d++ {
		if _, err := ps.Intern(d * 0x9e3779b97f4a7c15); err != nil {
			return nil, fmt.Errorf("wallclock: pagestore: %w", err)
		}
	}
	psMiss := false
	rep.Benches = append(rep.Benches, runBench("pagestore/lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := ps.Lookup(uint64(i%storeDigests) * 0x9e3779b97f4a7c15); !ok {
				psMiss = true
				return
			}
		}
	}))
	if psMiss {
		return nil, fmt.Errorf("wallclock: pagestore lookup missed an interned digest")
	}

	// Flush-vs-capacity curve: invalidate a 64-entry PCID against a
	// nearly-full background at increasing capacities.
	for _, cap := range []int{2048, 16384, 65536} {
		cap := cap
		res := runBench(fmt.Sprintf("tlb/flush_pcid_cap%d", cap), func(b *testing.B) {
			big := tlb.New(cap)
			for i := 0; i < cap-128; i++ {
				big.Insert(1, uint64(i)<<mem.PageShift, tlb.Entry{PFN: mem.PFN(i)})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 64; j++ {
					big.Insert(9, uint64(j)<<mem.PageShift, tlb.Entry{PFN: 1})
				}
				big.FlushPCID(9)
			}
		})
		rep.FlushByCapacity = append(rep.FlushByCapacity, WallclockFlush{
			Capacity:   cap,
			NsPerFlush: res.NsPerOp,
		})
	}

	// Parallel-runner speedup: the full smp grid and the chaos seed
	// sweep, sequential vs fanned out.
	seqSMP, err := measureWall(opts.Reps, func() error {
		_, err := RunSMPParallel(opts.Scale, SMPSeed, 1)
		return err
	})
	if err != nil {
		return nil, err
	}
	parSMP, err := measureWall(opts.Reps, func() error {
		_, err := RunSMPParallel(opts.Scale, SMPSeed, opts.Parallel)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.Speedups = append(rep.Speedups, WallclockSpeedup{
		Experiment:   "smp",
		Cells:        len(smpSpecs()) * len(SMPVCPUCounts),
		Parallel:     opts.Parallel,
		SequentialMs: float64(seqSMP.Microseconds()) / 1000,
		ParallelMs:   float64(parSMP.Microseconds()) / 1000,
		Speedup:      float64(seqSMP) / float64(parSMP),
	})

	seqChaos, err := measureWall(opts.Reps, func() error {
		_, err := RunChaosSweep(opts.Scale, ChaosSeed, opts.Seeds, 1)
		return err
	})
	if err != nil {
		return nil, err
	}
	parChaos, err := measureWall(opts.Reps, func() error {
		_, err := RunChaosSweep(opts.Scale, ChaosSeed, opts.Seeds, opts.Parallel)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.Speedups = append(rep.Speedups, WallclockSpeedup{
		Experiment:   "chaos",
		Cells:        opts.Seeds,
		Parallel:     opts.Parallel,
		SequentialMs: float64(seqChaos.Microseconds()) / 1000,
		ParallelMs:   float64(parChaos.Microseconds()) / 1000,
		Speedup:      float64(seqChaos) / float64(parChaos),
	})
	return rep, nil
}

// WriteWallclockJSON renders the report in the committed artifact's
// encoding.
func WriteWallclockJSON(rep *WallclockReport, w io.Writer) error { return writeJSON(w, rep) }

// WriteJSON writes the report in the committed BENCH_wallclock
// encoding.
func (rep *WallclockReport) WriteJSON(w io.Writer) error { return writeJSON(w, rep) }

// WriteTable renders the hot-path benchmarks, the flush-vs-capacity
// curve, and the parallel speedups as tables.
func (rep *WallclockReport) WriteTable(w io.Writer) error {
	t := NewTable(fmt.Sprintf("Host cost of the hot paths (%d CPUs, GOMAXPROCS %d)", rep.HostCPUs, rep.GoMaxProcs),
		"bench", "ns/op", "allocs/op", "B/op")
	for _, b := range rep.Benches {
		t.Row(b.Name, fmt.Sprintf("%.1f", b.NsPerOp), fmt.Sprint(b.AllocsPerOp), fmt.Sprint(b.BytesPerOp))
	}
	ft := NewTable("TLB flush cost by capacity (must stay flat)", "capacity", "ns/flush")
	for _, f := range rep.FlushByCapacity {
		ft.Row(itoa(f.Capacity), fmt.Sprintf("%.1f", f.NsPerFlush))
	}
	st := NewTable("Parallel grid speedup", "experiment", "cells", "parallel", "sequential", "parallel", "speedup")
	for _, s := range rep.Speedups {
		st.Row(s.Experiment, itoa(s.Cells), itoa(s.Parallel), fmt.Sprintf("%.1fms", s.SequentialMs),
			fmt.Sprintf("%.1fms", s.ParallelMs), fmt.Sprintf("%.2fx", s.Speedup))
	}
	for _, tab := range []*Table{t, ft, st} {
		if _, err := tab.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}
