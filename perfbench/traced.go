package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// benchExps are the internal/bench entry points the passes call.
var benchExps = []string{"fig14", "fig15", "fleet", "tail", "slo", "smp", "snapshot", "serverless"}

// cpuGroups are the package groups the CPU profile is folded into.
// Layers of the simulator are named by their internal/ package;
// runtime covers the Go runtime (allocation, GC, maps) and
// container_heap the standard library's heap, which the event queues
// use.
var cpuGroups = []string{
	"guest", "backends", "cki", "hw", "mem", "pagetable", "tlb", "mmu", "smp", "snapshot",
	"des", "fleet", "trace", "metrics", "telemetry", "workloads", "bench",
	"runtime", "container_heap", "other",
}

// perLayerSpecs lists the per-layer metrics in BENCHMARK.json order.
func perLayerSpecs() []metric {
	var ms []metric
	add := func(name, unit string) { ms = append(ms, metric{name, unit}) }
	for _, e := range benchExps {
		add("bench."+e+".host_ms", "ms")
	}
	add("workloads.sqlite.write.host_ms", "ms")
	add("workloads.sqlite.read.host_ms", "ms")
	add("guest.syscalls", "count")
	add("guest.bytes_written", "B")
	add("guest.write.ns_per_syscall", "ns")
	add("guest.read.ns_per_syscall", "ns")
	add("guest.write.alloc_bytes_per_syscall", "B")
	for _, rt := range sqliteRuntimes {
		add("backends."+rt.name+".sqlite_ms", "ms")
	}
	add("backends.boot_us", "us")
	for _, rt := range smpRuntimes {
		add("backends."+rt.name+".smp_request_us", "us")
	}
	for _, rt := range smpRuntimes {
		add("backends."+rt.name+".touch_warm_us", "us")
	}
	add("cki.gate_calls", "count")
	add("cki.pte_updates", "count")
	add("cki.copy_refreshes", "count")
	add("smp.shootdowns", "count")
	add("smp.ipis", "count")
	add("tlb.hit_ratio", "ratio")
	for _, rt := range snapshotRuntimes {
		add("snapshot."+rt.name+".encode_us", "us")
		add("snapshot."+rt.name+".decode_us", "us")
		add("backends."+rt.name+".restore_eager_ms", "ms")
		add("backends."+rt.name+".fork_cow_ms", "ms")
		add("backends."+rt.name+".fork_lazy_ms", "ms")
	}
	add("snapshot.cow_breaks", "count")
	add("snapshot.share_ratio", "ratio")
	add("des.arrivals_ms", "ms")
	add("fleet.binpack.ns_per_arrival", "ns")
	add("fleet.spread.ns_per_arrival", "ns")
	add("fleet.allocs_per_arrival", "count")
	add("fleet.bytes_per_arrival", "B")
	add("fleet.ns_per_arrival.nodes50", "ns")
	add("fleet.ns_per_arrival.nodes200", "ns")
	add("trace.ns_per_request", "ns")
	add("telemetry.ns_per_scrape", "ns")
	add("runtime.gc_cycles", "count")
	add("runtime.gc_cpu_frac", "ratio")
	add("runtime.gc_pause_ms", "ms")
	add("runtime.peak_live_heap_mb", "MB")
	for _, g := range cpuGroups {
		add("cpu."+g+".self_frac", "ratio")
	}
	add("trace_overhead_frac", "ratio")
	return ms
}

// traced is the per-layer run: untraced passes for half the
// measurement time, traced passes (spans, CPU profile, live-heap
// sampling) for the other half, then the workload's probes.
func traced(cfg config, s *setup, log io.Writer) (*values, error) {
	half := cfg.seconds / 2
	plain, err := timePasses(s, half, 1)
	if err != nil {
		return nil, err
	}
	profPath, err := outPath(cfg, "cpu-"+s.w.name+".pprof")
	if err != nil {
		return nil, err
	}
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	s.env.tr.on = true
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	cpu0 := readCPUClasses()
	hs := startHeapSampler()
	traced, err := timePasses(s, half, 1)
	peak := hs.stop()
	cpu1 := readCPUClasses()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	v := newValues(perLayerSpecs())
	n := float64(len(traced))
	note := fmt.Sprintf("(per traced pass, %d passes)", len(traced))
	for _, e := range benchExps {
		d, spans := s.env.tr.total("bench."+e, "")
		if spans > 0 {
			v.set("bench."+e+".host_ms", ms(d)/n, note)
		}
	}
	var gcs, pause float64
	for _, p := range traced {
		gcs += float64(p.GCCycles)
		pause += p.GCPause.Seconds() * 1e3
	}
	v.set("runtime.gc_cycles", gcs/n, note)
	v.set("runtime.gc_pause_ms", pause/n, note)
	gc, busy := cpu1.gc-cpu0.gc, (cpu1.total-cpu1.idle)-(cpu0.total-cpu0.idle)
	v.set("runtime.gc_cpu_frac", ratio(gc, busy), "(GC share of busy CPU time)")
	v.set("runtime.peak_live_heap_mb", float64(peak)/1e6, "(sampled every 2ms)")
	wallOf := func(p passStat) float64 { return p.Wall.Seconds() }
	v.set("trace_overhead_frac", medianOf(traced, wallOf)/medianOf(plain, wallOf)-1,
		fmt.Sprintf("(median of %d traced vs %d untraced passes)", len(traced), len(plain)))

	fracs, samples, err := foldProfile(profPath)
	if err != nil {
		return nil, err
	}
	for _, g := range cpuGroups {
		v.set("cpu."+g+".self_frac", fracs[g], fmt.Sprintf("(of %.0f profiled ms)", samples))
	}

	end := s.env.tr.begin("probe."+s.w.name, "")
	err = s.w.probe(s.env, v)
	end()
	if err != nil {
		return nil, fmt.Errorf("%s probe: %w", s.w.name, err)
	}
	spansPath, err := outPath(cfg, "spans-"+s.w.name+".json")
	if err != nil {
		return nil, err
	}
	if err := s.env.tr.write(spansPath); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "profile %s, spans %s\n", profPath, spansPath)
	return v, nil
}

// cpuClasses is a reading of the runtime's CPU-time estimates.
type cpuClasses struct{ gc, idle, total float64 }

func readCPUClasses() cpuClasses {
	ss := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ss)
	return cpuClasses{gc: ss[0].Value.Float64(), idle: ss[1].Value.Float64(), total: ss[2].Value.Float64()}
}

// heapSampler records the largest live heap the runtime reports while
// it runs.
type heapSampler struct {
	quit chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if b := s[0].Value.Uint64(); b > h.peak {
				h.peak = b
			}
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak live heap in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.quit)
	h.wg.Wait()
	return h.peak
}

// foldProfile folds a CPU profile's self (flat) time by package group
// and returns each group's share and the total profiled milliseconds.
// The profile is read with `go tool pprof -top`.
func foldProfile(path string) (map[string]float64, float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-unit=ms", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	flat := map[string]float64{}
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[0], "ms") || !strings.HasSuffix(f[1], "%") {
			continue
		}
		x, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		flat[cpuGroup(f[5])] += x
		total += x
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	fracs := map[string]float64{}
	for g, x := range flat {
		fracs[g] = ratio(x, total)
	}
	return fracs, total, nil
}

// cpuGroup maps a profiled function name, such as
// "repro/internal/guest.(*Kernel).fileWrite", to its package group.
func cpuGroup(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // type arguments
		fn = fn[:i]
	}
	dir, base := "", fn
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		dir, base = fn[:i+1], fn[i+1:]
	}
	if i := strings.Index(base, "."); i >= 0 {
		base = base[:i]
	}
	pkg := dir + base
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		for _, g := range cpuGroups {
			if g == name {
				return g
			}
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "container/heap":
		return "container_heap"
	}
	return "other"
}
