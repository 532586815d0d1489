package bench

import (
	"fmt"
	"io"

	"repro/internal/backends"
	"repro/internal/clock"
	"repro/internal/cve"
	"repro/internal/des"
	"repro/internal/workloads"
)

// paperExperiments are the paper's tables and figures, in paper order.
func paperExperiments() []Experiment {
	return []Experiment{
		table("fig2", "CVE study: container-exploitable kernel CVEs by effect", Fig2),
		table("tab1", "VM-level container design space (measured cells)", Tab1),
		table("tab2", "Microbenchmark latencies (syscall, pgfault, hypercall)", Tab2),
		table("tab3", "Privileged-instruction blocking matrix", Tab3),
		table("fig4", "Memory-intensive latency without CKI (motivation)", Fig4),
		table("fig5", "I/O-intensive throughput without CKI (motivation)", Fig5),
		table("fig10a", "Page-fault latency breakdown", Fig10a),
		table("fig10b", "Syscall latency and OPT1/2/3 ablation", Fig10b),
		table("fig11", "lmbench microbenchmarks", Fig11),
		table("fig12", "Memory-intensive applications", Fig12),
		table("fig13", "Overhead sweeps (BTree ratio, XSBench particles)", Fig13),
		table("tab4", "TLB-miss-intensive applications", Tab4),
		table("fig14", "SQLite throughput and syscall frequency", Fig14),
		table("fig15", "Syscall-optimization breakdown on SQLite", Fig15),
		table("fig16", "Key-value throughput vs number of clients", Fig16),
		table("tab5", "Intra-kernel isolation comparison", Tab5),
	}
}

// standardSet is the comparison set of most figures.
func standardSet() []struct {
	Name string
	Kind backends.Kind
	Opts backends.Options
} {
	return []struct {
		Name string
		Kind backends.Kind
		Opts backends.Options
	}{
		{"HVM-NST", backends.HVM, backends.Options{Nested: true}},
		{"PVM-NST", backends.PVM, backends.Options{Nested: true}},
		{"RunC", backends.RunC, backends.Options{}},
		{"HVM-BM", backends.HVM, backends.Options{}},
		{"PVM-BM", backends.PVM, backends.Options{}},
		{"CKI", backends.CKI, backends.Options{}},
	}
}

// Fig2 regenerates the CVE classification.
func Fig2(scale int, w io.Writer) error {
	_, err := io.WriteString(w, cve.Summarize(cve.Dataset()).Render()+"\n")
	return err
}

// Tab2 regenerates Table 2 plus the CKI column and the nested hypercall
// numbers of §7.1.
func Tab2(scale int, w io.Writer) error {
	t := NewTable("Table 2: container microbenchmarks (ns)",
		"op", "RunC", "HVM-BM", "PVM-BM", "HVM-NST", "PVM-NST", "CKI", "paper(RunC/HVM/PVM/HVM-NST/PVM-NST)")
	mk := func(kind backends.Kind, nested bool) *backends.Container {
		return backends.MustNew(kind, backends.Options{Nested: nested})
	}
	cs := []*backends.Container{
		mk(backends.RunC, false), mk(backends.HVM, false), mk(backends.PVM, false),
		mk(backends.HVM, true), mk(backends.PVM, true), mk(backends.CKI, false),
	}
	sys := make([]float64, len(cs))
	for i, c := range cs {
		sys[i] = c.MeasureSyscall().Nanos()
	}
	t.Rowf("syscall", "%.0f", append(sys, 0)[:6]...)
	t.rows[len(t.rows)-1] = append(t.rows[len(t.rows)-1][:7], "93/91/336/91/336")

	pf := make([]float64, len(cs))
	for i, c := range cs {
		v, err := c.MeasureFileFault(64)
		if err != nil {
			return err
		}
		pf[i] = v.Nanos()
	}
	t.Rowf("pgfault", "%.0f", pf...)
	t.rows[len(t.rows)-1] = append(t.rows[len(t.rows)-1][:7], "1000/4347/6727/34050/7346")

	hc := make([]float64, len(cs))
	for i, c := range cs {
		if c.Kind == backends.RunC {
			hc[i] = 0
			continue
		}
		v, err := c.MeasureHypercall()
		if err != nil {
			return err
		}
		hc[i] = v.Nanos()
	}
	t.Rowf("hypercall", "%.0f", hc...)
	t.rows[len(t.rows)-1] = append(t.rows[len(t.rows)-1][:7], "-/1088/466/6746/486 (CKI 390)")
	t.Note("pgfault is the lmbench-style file-backed fault; Fig. 10a covers anonymous faults")
	_, err := t.WriteTo(w)
	return err
}

// Fig4 regenerates the motivation figure: memory-intensive latency of
// the non-CKI runtimes, normalized to the slowest (HVM-NST).
func Fig4(scale int, w io.Writer) error {
	return memAppFigure(scale, w, "Figure 4: memory-intensive latency (normalized, no CKI)",
		[]string{"HVM-NST", "PVM-NST", "RunC", "HVM-BM", "PVM-BM"})
}

// Fig12 regenerates the evaluation figure with CKI included.
func Fig12(scale int, w io.Writer) error {
	if err := memAppFigure(scale, w, "Figure 12: memory-intensive latency (normalized)",
		[]string{"HVM-NST", "PVM-NST", "RunC", "HVM-BM", "PVM-BM", "CKI"}); err != nil {
		return err
	}
	// The 2M-hugepage companion rows (§7.2): EPT hugepages for HVM-BM.
	t := NewTable("Figure 12 (2M huge pages for VM memory): latency vs CKI",
		"app", "HVM-BM(2M)/CKI", "PVM/CKI")
	for _, app := range workloads.Fig12Apps(scale) {
		cki, err := app.Run(backends.MustNew(backends.CKI, backends.Options{}))
		if err != nil {
			return err
		}
		hvm, err := app.Run(backends.MustNew(backends.HVM, backends.Options{EPTHugePages: true}))
		if err != nil {
			return err
		}
		pvm, err := app.Run(backends.MustNew(backends.PVM, backends.Options{}))
		if err != nil {
			return err
		}
		t.Rowf(app.AppName, "%.2f",
			float64(hvm.Time)/float64(cki.Time),
			float64(pvm.Time)/float64(cki.Time))
	}
	t.Note("paper: HVM-BM overhead becomes minor with 2M EPT; CKI still cuts btree/dedup vs PVM by 44%%/42%%")
	_, err := t.WriteTo(w)
	return err
}

func memAppFigure(scale int, w io.Writer, title string, names []string) error {
	set := standardSet()
	t := NewTable(title, append([]string{"app"}, names...)...)
	for _, app := range workloads.Fig12Apps(scale) {
		times := map[string]float64{}
		max := 0.0
		for _, cfg := range set {
			keep := false
			for _, n := range names {
				if n == cfg.Name {
					keep = true
				}
			}
			if !keep {
				continue
			}
			res, err := app.Run(backends.MustNew(cfg.Kind, cfg.Opts))
			if err != nil {
				return err
			}
			times[cfg.Name] = float64(res.Time)
			if times[cfg.Name] > max {
				max = times[cfg.Name]
			}
		}
		vals := make([]float64, 0, len(names))
		for _, n := range names {
			vals = append(vals, times[n]/max)
		}
		t.Rowf(app.AppName, "%.3f", vals...)
	}
	t.Note("each row normalized to its slowest runtime (1.000)")
	_, err := t.WriteTo(w)
	return err
}

// Fig5 regenerates the I/O motivation figure: throughput of the non-CKI
// runtimes normalized to the fastest per app.
func Fig5(scale int, w io.Writer) error {
	names := []string{"HVM-NST", "PVM-NST", "RunC", "HVM-BM", "PVM-BM"}
	t := NewTable("Figure 5: I/O-intensive throughput (normalized, no CKI)",
		append([]string{"app"}, names...)...)
	apps := workloads.Fig5Apps(scale)
	for _, app := range apps {
		tput := map[string]float64{}
		best := 0.0
		for _, cfg := range standardSet() {
			if cfg.Name == "CKI" {
				continue
			}
			res, err := app.Run(backends.MustNew(cfg.Kind, cfg.Opts))
			if err != nil {
				return err
			}
			tput[cfg.Name] = res.OpsPerSec()
			if tput[cfg.Name] > best {
				best = tput[cfg.Name]
			}
		}
		vals := make([]float64, 0, len(names))
		for _, n := range names {
			vals = append(vals, tput[n]/best)
		}
		t.Rowf(app.AppName, "%.3f", vals...)
	}
	// The sqlite(tmpfs) bar from the Fig. 14 engine.
	sqlite := workloads.Fig14Cases(scale)[2] // fillrandom
	tput := map[string]float64{}
	best := 0.0
	for _, cfg := range standardSet() {
		if cfg.Name == "CKI" {
			continue
		}
		res, err := sqlite.Run(backends.MustNew(cfg.Kind, cfg.Opts))
		if err != nil {
			return err
		}
		tput[cfg.Name] = res.OpsPerSec()
		if tput[cfg.Name] > best {
			best = tput[cfg.Name]
		}
	}
	vals := make([]float64, 0, len(names))
	for _, n := range names {
		vals = append(vals, tput[n]/best)
	}
	t.Rowf("sqlite(tmpfs)", "%.3f", vals...)
	t.Note("paper: HVM-NST loses 1.8-4.3x to PVM-NST on I/O due to L0-mediated exits")
	_, err := t.WriteTo(w)
	return err
}

// Fig10a regenerates the page-fault breakdown.
func Fig10a(scale int, w io.Writer) error {
	t := NewTable("Figure 10a: anonymous page-fault latency (ns)",
		"runtime", "measured", "virt overhead", "paper")
	paper := map[string]float64{
		"HVM-NST": 32565, "HVM-BM": 3257, "PVM-BM": 4407, "CKI": 1067, "RunC": 1000,
	}
	// Native baseline first, so the overhead column is defined for all.
	nc := backends.MustNew(backends.RunC, backends.Options{})
	nv, err := nc.MeasureAnonFault(64)
	if err != nil {
		return err
	}
	native := nv.Nanos()
	for _, cfg := range standardSet() {
		if cfg.Name == "PVM-NST" {
			continue // not reported in the figure
		}
		c := backends.MustNew(cfg.Kind, cfg.Opts)
		v, err := c.MeasureAnonFault(64)
		if err != nil {
			return err
		}
		over := "-"
		if native > 0 && cfg.Name != "RunC" {
			over = fmt.Sprintf("+%.0f", v.Nanos()-native)
		}
		ref := "-"
		if p, ok := paper[cfg.Name]; ok {
			ref = fmt.Sprintf("%.0f", p)
		}
		t.Row(cfg.Name, fmt.Sprintf("%.0f", v.Nanos()), over, ref)
	}
	t.Note("paper breakdown: CKI = 990 handler + 77 KSM calls; PVM = 1065 + 1532 exits + 1828 SPT emulation")
	_, err = t.WriteTo(w)
	return err
}

// Fig10b regenerates the syscall ablation.
func Fig10b(scale int, w io.Writer) error {
	t := NewTable("Figure 10b: getpid latency (ns)", "config", "measured", "paper")
	cases := []struct {
		name  string
		kind  backends.Kind
		opts  backends.Options
		paper float64
	}{
		{"RunC", backends.RunC, backends.Options{}, 93},
		{"HVM", backends.HVM, backends.Options{}, 91},
		{"PVM", backends.PVM, backends.Options{}, 336},
		{"CKI-wo-OPT2", backends.CKI, backends.Options{WoOPT2: true}, 238},
		{"CKI-wo-OPT3", backends.CKI, backends.Options{WoOPT3: true}, 153},
		{"CKI", backends.CKI, backends.Options{}, 90},
	}
	for _, tc := range cases {
		c := backends.MustNew(tc.kind, tc.opts)
		t.Row(tc.name, fmt.Sprintf("%.0f", c.MeasureSyscall().Nanos()),
			fmt.Sprintf("%.0f", tc.paper))
	}
	t.Note("OPT1: no extra mode switches; OPT2: no page-table switches; OPT3: sysret/swapgs stay executable")
	_, err := t.WriteTo(w)
	return err
}

// Fig11 regenerates the lmbench figure (latencies normalized to RunC).
func Fig11(scale int, w io.Writer) error {
	t := NewTable("Figure 11: lmbench latency (normalized to RunC)",
		"case", "RunC", "HVM", "CKI", "PVM")
	for _, lc := range workloads.LMBenchCases(scale) {
		per := map[string]float64{}
		for _, cfg := range []struct {
			name string
			kind backends.Kind
		}{{"RunC", backends.RunC}, {"HVM", backends.HVM}, {"CKI", backends.CKI}, {"PVM", backends.PVM}} {
			res, err := lc.Run(backends.MustNew(cfg.kind, backends.Options{}))
			if err != nil {
				return err
			}
			per[cfg.name] = res.PerOp().Nanos()
		}
		t.Rowf(lc.CaseName, "%.2f",
			1.0, per["HVM"]/per["RunC"], per["CKI"]/per["RunC"], per["PVM"]/per["RunC"])
	}
	t.Note("paper: PVM doubles short syscalls and dominates pgfault/fork; HVM ~ RunC; CKI adds only KSM calls")
	_, err := t.WriteTo(w)
	return err
}

// Fig13 regenerates the two overhead sweeps.
func Fig13(scale int, w io.Writer) error {
	t := NewTable("Figure 13a: BTree overhead vs RunC (%) by lookup/insert ratio",
		"ratio", "HVM-NST", "PVM", "CKI")
	for _, ratio := range []int{0, 2, 4, 8, 16} {
		app := workloads.BTreeSweep{Inserts: 120 * scale, Ratio: ratio}
		runc, err := app.Run(backends.MustNew(backends.RunC, backends.Options{}))
		if err != nil {
			return err
		}
		over := func(kind backends.Kind, opts backends.Options) float64 {
			res, err2 := app.Run(backends.MustNew(kind, opts))
			if err2 != nil {
				err = err2
				return 0
			}
			return 100 * (float64(res.Time)/float64(runc.Time) - 1)
		}
		nst := over(backends.HVM, backends.Options{Nested: true})
		pvm := over(backends.PVM, backends.Options{})
		cki := over(backends.CKI, backends.Options{})
		if err != nil {
			return err
		}
		t.Rowf(fmt.Sprintf("%d", ratio), "%.1f", nst, pvm, cki)
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	t2 := NewTable("Figure 13b: XSBench overhead vs RunC (%) by particle count",
		"particles", "HVM-NST", "PVM", "CKI")
	for _, particles := range []int{50, 100, 200, 400, 800} {
		app := workloads.XSBenchSweep{GridPages: 200 * scale, Particles: particles * scale}
		runc, err := app.Run(backends.MustNew(backends.RunC, backends.Options{}))
		if err != nil {
			return err
		}
		over := func(kind backends.Kind, opts backends.Options) (float64, error) {
			res, err := app.Run(backends.MustNew(kind, opts))
			if err != nil {
				return 0, err
			}
			return 100 * (float64(res.Time)/float64(runc.Time) - 1), nil
		}
		nst, err := over(backends.HVM, backends.Options{Nested: true})
		if err != nil {
			return err
		}
		pvm, err := over(backends.PVM, backends.Options{})
		if err != nil {
			return err
		}
		cki, err := over(backends.CKI, backends.Options{})
		if err != nil {
			return err
		}
		t2.Rowf(fmt.Sprintf("%d", particles*scale), "%.1f", nst, pvm, cki)
	}
	t2.Note("paper: overhead decreases with lookup ratio / particle count; CKI stays low throughout")
	_, err := t2.WriteTo(w)
	return err
}

// Tab4 regenerates the TLB-miss table, scaled to the paper's seconds.
func Tab4(scale int, w io.Writer) error {
	t := NewTable("Table 4: TLB-miss-intensive finish time (s, scaled to paper's RunC)",
		"app", "RunC", "HVM-BM", "PVM-BM", "CKI", "paper(RunC/HVM/PVM/CKI)")
	paperRunC := map[string]float64{"GUPS": 54.9, "BTree-Lookup": 22.6}
	paperRow := map[string]string{
		"GUPS":         "54.9/67.8/54.9/55.1",
		"BTree-Lookup": "22.6/24.1/21.7/22.6",
	}
	for _, app := range workloads.Table4Apps(scale) {
		runc, err := app.Run(backends.MustNew(backends.RunC, backends.Options{}))
		if err != nil {
			return err
		}
		row := []float64{paperRunC[app.Name()]}
		for _, cfg := range []struct {
			kind backends.Kind
		}{{backends.HVM}, {backends.PVM}, {backends.CKI}} {
			res, err := app.Run(backends.MustNew(cfg.kind, backends.Options{}))
			if err != nil {
				return err
			}
			row = append(row, workloads.ScaledSeconds(res, runc, paperRunC[app.Name()]))
		}
		t.Rowf(app.Name(), "%.1f", row...)
		t.rows[len(t.rows)-1] = append(t.rows[len(t.rows)-1], paperRow[app.Name()])
	}
	t.Note("HVM pays two-dimensional walks; 1-D runtimes track RunC")
	_, err := t.WriteTo(w)
	return err
}

// Fig14 regenerates the SQLite figure: normalized throughput plus the
// syscall-frequency series.
func Fig14(scale int, w io.Writer) error {
	t := NewTable("Figure 14: SQLite throughput (normalized) and syscall frequency",
		"case", "PVM", "CKI", "HVM", "RunC", "syscalls/op", "M-syscalls/s (CKI)")
	for _, sc := range workloads.Fig14Cases(scale) {
		res := map[string]workloads.Result{}
		best := 0.0
		for _, cfg := range []struct {
			name string
			kind backends.Kind
		}{{"PVM", backends.PVM}, {"CKI", backends.CKI}, {"HVM", backends.HVM}, {"RunC", backends.RunC}} {
			r, err := sc.Run(backends.MustNew(cfg.kind, backends.Options{}))
			if err != nil {
				return err
			}
			res[cfg.name] = r
			if r.OpsPerSec() > best {
				best = r.OpsPerSec()
			}
		}
		cki := res["CKI"]
		perOpSys := float64(cki.Syscalls) / float64(cki.Ops)
		mps := float64(cki.Syscalls) / cki.Time.Seconds() / 1e6
		t.Rowf(sc.CaseName, "%.3f",
			res["PVM"].OpsPerSec()/best, res["CKI"].OpsPerSec()/best,
			res["HVM"].OpsPerSec()/best, res["RunC"].OpsPerSec()/best,
			perOpSys, mps)
	}
	t.Note("paper: PVM loses 19-24%% on writes (syscall redirection); reads run from cache, all equal")
	_, err := t.WriteTo(w)
	return err
}

// Fig15 regenerates the syscall-optimization breakdown on SQLite.
func Fig15(scale int, w io.Writer) error {
	t := NewTable("Figure 15: overhead vs CKI (%) on SQLite",
		"case", "PVM", "CKI-wo-OPT2", "CKI-wo-OPT3")
	for _, sc := range workloads.Fig14Cases(scale) {
		base, err := sc.Run(backends.MustNew(backends.CKI, backends.Options{}))
		if err != nil {
			return err
		}
		over := func(kind backends.Kind, opts backends.Options) (float64, error) {
			r, err := sc.Run(backends.MustNew(kind, opts))
			if err != nil {
				return 0, err
			}
			return 100 * (float64(r.Time)/float64(base.Time) - 1), nil
		}
		pvm, err := over(backends.PVM, backends.Options{})
		if err != nil {
			return err
		}
		wo2, err := over(backends.CKI, backends.Options{WoOPT2: true})
		if err != nil {
			return err
		}
		wo3, err := over(backends.CKI, backends.Options{WoOPT3: true})
		if err != nil {
			return err
		}
		t.Rowf(sc.CaseName, "%.1f", pvm, wo2, wo3)
	}
	t.Note("paper ladders: PVM 24/17/23/22/22/1/0; each OPT removes part of the gap")
	_, err := t.WriteTo(w)
	return err
}

// Fig16 regenerates the throughput-vs-clients curves via the DES.
func Fig16(scale int, w io.Writer) error {
	clients := []int{1, 2, 4, 8, 16, 32, 64, 128}
	apps := []struct {
		app     workloads.KVApp
		workers int
	}{
		{workloads.Memcached(48 * scale), 4},
		{workloads.Redis(48 * scale), 1},
	}
	cfgs := []struct {
		name string
		kind backends.Kind
		opts backends.Options
	}{
		{"CKI-NST", backends.CKI, backends.Options{Nested: true}},
		{"PVM-NST", backends.PVM, backends.Options{Nested: true}},
		{"HVM-NST", backends.HVM, backends.Options{Nested: true}},
		{"CKI-BM", backends.CKI, backends.Options{}},
		{"PVM-BM", backends.PVM, backends.Options{}},
		{"HVM-BM", backends.HVM, backends.Options{}},
	}
	for _, a := range apps {
		t := NewTable(fmt.Sprintf("Figure 16: %s throughput (k-ops/s) vs clients", a.app.AppName),
			append([]string{"runtime"}, intLabels(clients)...)...)
		for _, cfg := range cfgs {
			model, err := ServiceModelFor(a.app, cfg.kind, cfg.opts)
			if err != nil {
				return err
			}
			var row []float64
			for _, n := range clients {
				ops, _ := des.ClosedLoop{
					Clients: n,
					Workers: a.workers,
					RTT:     40 * clock.Microsecond,
					Service: model,
					Horizon: 20 * clock.Millisecond,
				}.Throughput()
				row = append(row, ops/1000)
			}
			t.Rowf(cfg.name, "%.0f", row...)
		}
		t.Note("paper: CKI-NST reaches ~6.8x HVM-NST (memcached) / ~2.0x (redis); ~1.5x/1.3x PVM-NST")
		if _, err := t.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}

// ServiceModelFor measures per-request service times at several
// coalescing depths on a live container and interpolates by backlog.
// Depths are capped at the application's own batch limit: memcached's
// worker threads drain queues before they deepen, so its interrupts and
// doorbells never coalesce far, while single-threaded redis backlogs
// deeper (the difference behind Fig. 16's 6.8× vs 2.0× gains).
func ServiceModelFor(app workloads.KVApp, kind backends.Kind, opts backends.Options) (des.ServiceModel, error) {
	var depths []int
	for _, d := range []int{1, 2, 4, 8, 16} {
		if d <= app.Batch {
			depths = append(depths, d)
		}
	}
	times := map[int]clock.Time{}
	for _, d := range depths {
		probe := app
		probe.Requests = 32
		probe.Batch = d
		res, err := probe.Run(backends.MustNew(kind, opts))
		if err != nil {
			return nil, err
		}
		times[d] = res.PerOp()
	}
	return func(backlog int) clock.Time {
		best := times[1]
		for _, d := range depths {
			if backlog >= d {
				best = times[d]
			}
		}
		return best
	}, nil
}

func intLabels(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%d", x)
	}
	return out
}
