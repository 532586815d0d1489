// Command perfbench measures what the simulator costs on the host: the
// wall time, allocations and set-up time of three fixed workloads built
// from the public entry points of internal/bench (the calls `ckibench
// -exp <id>` makes), with every output checked against a reference.
//
//	perfbench -workload sqlite -seed 0 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// instead reports per-layer metrics from a traced run: host-time spans
// around the benchmark's own calls into each layer, the layers' public
// counters, and a CPU profile folded by package. The last line of
// standard output is one JSON object:
//
//	{"correct":true,"attempted":12,"failed":0,"metrics":{"wall_s":{"value":7.5,"unit":"s"},...}}
//
// perfbench/run.sh builds the command from the checkout and runs it;
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart approximates process start: package variables are
// initialised before main runs, after only the Go runtime's own start.
var processStart = time.Now()

// sampleProcs is how many processes an untraced run measures in: this
// one and sampleProcs-1 fresh children. Each sets up cold once and
// times warm passes for its share of the run, and the metrics pool all
// of them. On a shared VM a process's CPU placement and memory layout
// shift its speed by about 10%, so no metric rests on one process.
const sampleProcs = 3

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// root is the checkout holding the reference files; out receives
	// CPU profiles and span dumps.
	root, out string
	// procs is the number of processes an untraced run samples.
	procs int
	// child, when > 0, makes the process one sample of an untraced run:
	// it sets up, times passes for child, prints its sample and exits.
	child time.Duration
}

func parseArgs(args []string) (config, error) {
	cfg := config{procs: sampleProcs}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 0, "input seed; 0 selects the seeds of the committed artifacts")
	secs := fs.Int("seconds", 10, "measurement time of one run")
	tr := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	fs.StringVar(&cfg.root, "root", ".", "repository checkout holding the references")
	fs.StringVar(&cfg.out, "out", ".bench_build/out", "directory for CPU profiles and span dumps")
	fs.DurationVar(&cfg.child, "child", 0, "run as a sample process that times passes for this long (used by untraced runs)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if findWorkload(cfg.workload) == nil {
		return cfg, fmt.Errorf("-workload must be one of %s (got %q)", strings.Join(workloadNames(), ", "), cfg.workload)
	}
	if *secs < 1 {
		return cfg, errors.New("-seconds must be >= 1")
	}
	if *tr != 0 && *tr != 1 {
		return cfg, errors.New("-trace must be 0 or 1")
	}
	cfg.seconds = time.Duration(*secs) * time.Second
	cfg.trace = *tr == 1
	return cfg, nil
}

func main() {
	// One P: the passes run on a single goroutine, and with one P the
	// garbage collector shares its core instead of racing for a second
	// one that other processes may hold, which makes wall times repeat.
	runtime.GOMAXPROCS(1)
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if cfg.child > 0 {
		if err := runChild(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(cfg, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the final output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setup is one process's set-up: references read and digested, then
// one untimed pass whose outputs are checked.
type setup struct {
	w       *workload
	env     *env
	ck      *checker
	seconds float64
}

func setUp(cfg config, errLog io.Writer) (*setup, error) {
	w := findWorkload(cfg.workload)
	ck, err := newChecker(cfg.root, w.refs(cfg.seed), errLog)
	if err != nil {
		return nil, err
	}
	e := &env{seed: cfg.seed, tr: &tracer{}, ck: ck}
	outs, err := w.pass(e)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up pass: %w", w.name, err)
	}
	ck.verify(outs)
	if ck.failed > 0 {
		return nil, fmt.Errorf("%s: set-up pass: %d of %d output checks failed", w.name, ck.failed, ck.attempted)
	}
	return &setup{w: w, env: e, ck: ck, seconds: time.Since(processStart).Seconds()}, nil
}

// run executes one benchmark run and returns its result line. Human-
// readable lines (host facts, every metric with its unit and sample
// count, the error rate) go to log first; failed output checks are
// reported on errLog.
func run(cfg config, log, errLog io.Writer) (*result, error) {
	fmt.Fprintf(log, "host: nproc=%d GOMAXPROCS=%d go=%s os/arch=%s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	s, err := setUp(cfg, errLog)
	if err != nil {
		return nil, err
	}
	specs := endToEndSpecs
	var vals *values
	if cfg.trace {
		specs = perLayerSpecs()
		vals, err = traced(cfg, s, log)
	} else {
		vals, err = untraced(cfg, s, log)
	}
	if err != nil {
		return nil, err
	}
	if vals.err != nil {
		return nil, vals.err
	}
	res := &result{
		Attempted: s.ck.attempted,
		Failed:    s.ck.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range specs {
		v := vals.m[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not a number (%v)", m.name, v)
		}
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
		fmt.Fprintf(log, "metric %-40s %16.6f %-6s %s\n", m.name, v, m.unit, vals.note[m.name])
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(log, "error_rate %g (%d of %d output checks failed)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return res, nil
}

// passStat is one timed pass.
type passStat struct {
	Wall       time.Duration `json:"wall_ns"`
	AllocBytes uint64        `json:"alloc_bytes"`
	Allocs     uint64        `json:"allocs"`
	GCCycles   uint32        `json:"gc_cycles"`
	GCPause    time.Duration `json:"gc_pause_ns"`
}

// timePasses runs warm passes, each after a forced GC so passes start
// from the same heap, until at least min passes ran and budget elapsed.
// Every pass's outputs are checked.
func timePasses(s *setup, budget time.Duration, min int) ([]passStat, error) {
	var stats []passStat
	start := time.Now()
	for len(stats) < min || time.Since(start) < budget {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		outs, err := s.w.pass(s.env)
		d := time.Since(t)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", s.w.name, len(stats)+1, err)
		}
		s.ck.verify(outs)
		stats = append(stats, passStat{
			Wall:       d,
			AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
			Allocs:     m1.Mallocs - m0.Mallocs,
			GCCycles:   m1.NumGC - m0.NumGC,
			GCPause:    time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		})
	}
	return stats, nil
}

// sample is what one process of an untraced run measured.
type sample struct {
	SetupS    float64    `json:"setup_s"`
	Passes    []passStat `json:"passes"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
}

// runChild is a sample process: cold set-up, then warm passes.
func runChild(cfg config) error {
	s, err := setUp(cfg, os.Stderr)
	if err != nil {
		return err
	}
	stats, err := timePasses(s, cfg.child, 1)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(sample{
		SetupS: s.seconds, Passes: stats, Attempted: s.ck.attempted, Failed: s.ck.failed,
	})
}

// childSample runs one sample process and returns what it measured.
func childSample(cfg config, d time.Duration) (sample, error) {
	var smp sample
	exe, err := os.Executable()
	if err != nil {
		return smp, fmt.Errorf("sample process: %w", err)
	}
	cmd := exec.Command(exe, "-workload", cfg.workload, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-root", cfg.root, "-out", cfg.out, "-child", d.String())
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return smp, fmt.Errorf("sample process: %w", err)
	}
	if err := json.Unmarshal(out, &smp); err != nil {
		return smp, fmt.Errorf("sample process: %w", err)
	}
	return smp, nil
}

// untraced measures the end-to-end metrics in cfg.procs processes, this
// one first, each timing passes for its share of the run.
func untraced(cfg config, s *setup, log io.Writer) (*values, error) {
	share := cfg.seconds / time.Duration(cfg.procs)
	own, err := timePasses(s, share, 1)
	if err != nil {
		return nil, err
	}
	samples := []sample{{SetupS: s.seconds, Passes: own}}
	for len(samples) < cfg.procs {
		smp, err := childSample(cfg, share)
		if err != nil {
			return nil, err
		}
		s.ck.attempted += smp.Attempted
		s.ck.failed += smp.Failed
		samples = append(samples, smp)
	}
	var setups []float64
	var stats []passStat
	for i, smp := range samples {
		setups = append(setups, smp.SetupS)
		stats = append(stats, smp.Passes...)
		fmt.Fprintf(log, "process %d: setup_s %.4f, pass wall_s", i+1, smp.SetupS)
		for _, p := range smp.Passes {
			fmt.Fprintf(log, " %.4f", p.Wall.Seconds())
		}
		fmt.Fprintln(log)
	}
	vals := newValues(endToEndSpecs)
	n := fmt.Sprintf("(median of %d passes in %d processes)", len(stats), len(samples))
	vals.set("setup_s", median(setups), fmt.Sprintf("(median of %d cold set-ups)", len(setups)))
	vals.set("wall_s", medianOf(stats, func(p passStat) float64 { return p.Wall.Seconds() }), n)
	vals.set("alloc_mb", medianOf(stats, func(p passStat) float64 { return float64(p.AllocBytes) / 1e6 }), n)
	vals.set("allocs_k", medianOf(stats, func(p passStat) float64 { return float64(p.Allocs) / 1e3 }), n)
	return vals, nil
}

// metric is one declared metric. The lists below are what BENCHMARK.json
// declares; main_test.go keeps the two in step.
type metric struct{ name, unit string }

var endToEndSpecs = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"alloc_mb", "MB"},
	{"allocs_k", "k"},
}

// values collects measured metric values. Every declared metric starts
// at 0, which is what a layer the workload never calls reads; setting
// an undeclared name is an error.
type values struct {
	m    map[string]float64
	note map[string]string
	err  error
}

func newValues(specs []metric) *values {
	v := &values{m: map[string]float64{}, note: map[string]string{}}
	for _, s := range specs {
		v.m[s.name] = 0
	}
	return v
}

func (v *values) set(name string, x float64, note string) {
	if _, ok := v.m[name]; !ok && v.err == nil {
		v.err = fmt.Errorf("metric %q is not declared", name)
	}
	v.m[name] = x
	v.note[name] = note
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianOf(stats []passStat, f func(passStat) float64) float64 {
	xs := make([]float64, len(stats))
	for i, p := range stats {
		xs[i] = f(p)
	}
	return median(xs)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// outPath returns a file path under the output directory, creating it.
func outPath(cfg config, name string) (string, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(cfg.out, name), nil
}
