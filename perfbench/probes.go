package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/backends"
	"repro/internal/des"
	"repro/internal/fleet"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mmu"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// A probe is the benchmark's own sequence of calls into one layer,
// each call wrapped in a span, followed by reads of the layer's public
// counters. Probes run in traced runs only, after the traced passes.

type runtimeSpec struct {
	name string
	kind backends.Kind
	opts backends.Options
}

// sqliteRuntimes are the six configurations Fig. 14 and Fig. 15 run on.
var sqliteRuntimes = []runtimeSpec{
	{"runc", backends.RunC, backends.Options{}},
	{"hvm", backends.HVM, backends.Options{}},
	{"pvm", backends.PVM, backends.Options{}},
	{"cki", backends.CKI, backends.Options{}},
	{"cki-woopt2", backends.CKI, backends.Options{WoOPT2: true}},
	{"cki-woopt3", backends.CKI, backends.Options{WoOPT3: true}},
}

// smpRuntimes are the five runtimes of the smp experiment, with its
// memory sizes.
var smpRuntimes = []runtimeSpec{
	{"runc", backends.RunC, backends.Options{}},
	{"hvm", backends.HVM, backends.Options{GuestFrames: 1 << 13}},
	{"pvm", backends.PVM, backends.Options{GuestFrames: 1 << 13}},
	{"cki", backends.CKI, backends.Options{}},
	{"gvisor", backends.GVisor, backends.Options{}},
}

// snapshotRuntimes are the runtimes the snapshot probe checkpoints and
// forks, sized like the serverless experiment's.
var snapshotRuntimes = []runtimeSpec{
	{"cki", backends.CKI, backends.Options{SegmentFrames: 1 << 11, TLBEntries: 16}},
	{"hvm", backends.HVM, backends.Options{GuestFrames: 1 << 12, TLBEntries: 16}},
}

// boot boots a container inside a backends.boot span.
func (e *env) boot(rt runtimeSpec) (*backends.Container, error) {
	end := e.tr.begin("backends.boot", rt.name)
	c, err := backends.New(rt.kind, rt.opts)
	end()
	if err != nil {
		return nil, fmt.Errorf("boot %s: %w", rt.name, err)
	}
	return c, nil
}

// sqliteValueSize is sqlite-bench's default value size, the one the
// SQLite cases write; sqliteRowsPerPage is the engine's rows per 4 KiB
// table page.
const (
	sqliteValueSize   = 100
	sqliteRowsPerPage = 16
)

// preadRounds is how many times the read probe preads every page of a
// filled database file.
const preadRounds = 4

// sqliteProbe runs every Fig. 14 case on every runtime configuration,
// each on a freshly booted container. Write cases are timed around
// SQLiteCase.Run. A read case's Run includes its table pre-fill, which
// is write work, so its read phase is replayed on its own through the
// engine's API and timed there; the replay must reproduce Run's result
// exactly. Each runtime then preads the filled table page by page: the
// guest's read syscall path.
func sqliteProbe(e *env, v *values) error {
	var (
		sys, writeSys, bytesWritten, writeAlloc, preadSys uint64
	)
	for _, rt := range sqliteRuntimes {
		for _, sc := range workloads.Fig14Cases(1) {
			c, err := e.boot(rt)
			if err != nil {
				return err
			}
			k := c.K
			s0 := k.Stats
			var m0, m1 runtime.MemStats
			if !sc.Read {
				runtime.ReadMemStats(&m0)
			}
			class := "workloads.sqlite.write"
			if sc.Read {
				class = "workloads.sqlite.read_case"
			}
			end := e.tr.begin(class, rt.name)
			res, err := sc.Run(c)
			end()
			if err != nil {
				return fmt.Errorf("%s on %s: %w", sc.Name(), rt.name, err)
			}
			sys += k.Stats.Syscalls - s0.Syscalls
			if !sc.Read {
				runtime.ReadMemStats(&m1)
				writeAlloc += m1.TotalAlloc - m0.TotalAlloc
				writeSys += k.Stats.Syscalls - s0.Syscalls
				bytesWritten += k.Stats.BytesWritten - s0.BytesWritten
				continue
			}
			c2, err := e.boot(rt)
			if err != nil {
				return err
			}
			replay, err := sqliteReadPhase(e, c2, rt.name, sc)
			if err == nil && replay != res {
				err = fmt.Errorf("replayed read phase %+v, Run gave %+v", replay, res)
			}
			e.ck.check("sqlite read replay "+sc.CaseName+"/"+rt.name, err)
			if err != nil || sc.Random {
				continue
			}
			n, err := sqlitePreads(e, c2, rt.name, sc)
			preadSys += n
			e.ck.check("sqlite pread "+sc.CaseName+"/"+rt.name, err)
		}
	}
	for _, rt := range sqliteRuntimes {
		write, _ := e.tr.total("workloads.sqlite.write", rt.name)
		read, _ := e.tr.total("workloads.sqlite.read_case", rt.name)
		v.set("backends."+rt.name+".sqlite_ms", ms(write+read), "(Run of all 7 cases)")
	}
	write, _ := e.tr.total("workloads.sqlite.write", "")
	read, _ := e.tr.total("workloads.sqlite.read", "")
	pread, _ := e.tr.total("guest.pread", "")
	v.set("workloads.sqlite.write.host_ms", ms(write), "(5 write cases x 6 runtimes)")
	v.set("workloads.sqlite.read.host_ms", ms(read), "(read phase of 2 cases x 6 runtimes)")
	v.set("guest.syscalls", float64(sys), "(all 7 cases x 6 runtimes)")
	v.set("guest.bytes_written", float64(bytesWritten), "(write cases)")
	v.set("guest.write.ns_per_syscall", ratio(float64(write), float64(writeSys)), fmt.Sprintf("(%d syscalls)", writeSys))
	v.set("guest.write.alloc_bytes_per_syscall", ratio(float64(writeAlloc), float64(writeSys)), fmt.Sprintf("(%d syscalls)", writeSys))
	v.set("guest.read.ns_per_syscall", ratio(float64(pread), float64(preadSys)), fmt.Sprintf("(%d preads)", preadSys))
	v.set("backends.boot_us", e.tr.mean("backends.boot", "", time.Microsecond), "")
	return nil
}

// sqliteReadPhase fills a table the way a read case's Run does, then
// times the case's read phase alone and returns its result.
func sqliteReadPhase(e *env, c *backends.Container, rt string, sc workloads.SQLiteCase) (workloads.Result, error) {
	db, err := workloads.OpenSQLite(c, sc.CaseName)
	if err != nil {
		return workloads.Result{}, err
	}
	value := make([]byte, sqliteValueSize)
	for i := range value {
		value[i] = byte(i)
	}
	for i := 0; i < sc.Entries; i++ {
		if err := db.Put(uint64(i), value, false); err != nil {
			return workloads.Result{}, err
		}
	}
	if err := db.Commit(); err != nil {
		return workloads.Result{}, err
	}
	r := rand.New(rand.NewSource(workloads.Seed))
	k := c.K
	t0, s0, pf0 := c.Clk.Now(), k.Stats.Syscalls, k.Stats.PageFaults
	end := e.tr.begin("workloads.sqlite.read", rt)
	for i := 0; i < sc.Entries; i++ {
		key := uint64(i)
		if sc.Random {
			key = uint64(r.Intn(sc.Entries))
		}
		if _, err := db.Get(key); err != nil {
			end()
			return workloads.Result{}, err
		}
	}
	end()
	return workloads.Result{
		Workload: sc.Name(), Runtime: c.Name, Time: c.Clk.Now() - t0, Ops: sc.Entries,
		Syscalls: k.Stats.Syscalls - s0, PageFaults: k.Stats.PageFaults - pf0,
	}, nil
}

// sqlitePreads preads every page of the case's filled table
// preadRounds times, in one guest.pread span, and returns the syscalls
// issued.
func sqlitePreads(e *env, c *backends.Container, rt string, sc workloads.SQLiteCase) (uint64, error) {
	k := c.K
	fd, err := k.Open("/"+sc.CaseName+".db", false)
	if err != nil {
		return 0, err
	}
	pages := uint64(sc.Entries / sqliteRowsPerPage)
	s0 := k.Stats.Syscalls
	end := e.tr.begin("guest.pread", rt)
	for r := 0; r < preadRounds; r++ {
		for pg := uint64(0); pg < pages; pg++ {
			b, err := k.Pread(fd, mem.PageSize, pg*mem.PageSize)
			if err == nil && len(b) != mem.PageSize {
				err = fmt.Errorf("page %d: %d bytes", pg, len(b))
			}
			if err != nil {
				end()
				return 0, err
			}
		}
	}
	end()
	n := k.Stats.Syscalls - s0
	return n, k.Close(fd)
}

const (
	// smpProbeVCPUs is the vCPU count of the SMP request probe.
	smpProbeVCPUs = 4
	// smpProbeRounds x smpProbeVCPUs requests are timed per runtime.
	smpProbeRounds = 64
	// touchPages is the resident range the warm re-touch probe reads;
	// touchReps is how often it is re-touched.
	touchPages = 64
	touchReps  = 64
)

// smpRequest is the smp experiment's request: map a page, write it,
// unmap it (the unmap of a resident page forces a shootdown).
func smpRequest(k *guest.Kernel) error {
	addr, err := k.MmapCall(mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		return err
	}
	if err := k.TouchRange(addr, mem.PageSize, mmu.Write); err != nil {
		return err
	}
	return k.MunmapCall(addr, mem.PageSize)
}

// machineProbe times the SMP request (the page-table write path) and a
// warm re-touch of a resident range (the read path) on the five
// runtimes at four vCPUs, reads the CKI, SMP and TLB counters, then
// runs the snapshot probe.
func machineProbe(e *env, v *values) error {
	var shootdowns, ipis, hits, lookups uint64
	for _, rt := range smpRuntimes {
		rt.opts.NumVCPU = smpProbeVCPUs
		c, err := e.boot(rt)
		if err != nil {
			return err
		}
		k := c.K
		for i := 0; i < 4; i++ { // warm the allocator and page tables
			if err := smpRequest(k); err != nil {
				return err
			}
		}
		for r := 0; r < smpProbeRounds; r++ {
			for cpu := 0; cpu < smpProbeVCPUs; cpu++ {
				if err := c.MigrateVCPU(cpu); err != nil {
					return err
				}
				end := e.tr.begin("backends.smp_request", rt.name)
				err := smpRequest(k)
				end()
				if err != nil {
					return fmt.Errorf("smp request on %s: %w", rt.name, err)
				}
			}
		}
		n := uint64(touchPages * mem.PageSize)
		addr, err := k.MmapCall(n, guest.ProtRead|guest.ProtWrite, nil, false)
		if err != nil {
			return err
		}
		if err := k.TouchRange(addr, n, mmu.Write); err != nil {
			return err
		}
		for i := 0; i < touchReps; i++ {
			end := e.tr.begin("backends.touch_warm", rt.name)
			err := k.TouchRange(addr, n, mmu.Read)
			end()
			if err != nil {
				return err
			}
		}
		if err := k.MunmapCall(addr, n); err != nil {
			return err
		}
		if ksm, _, _, ok := c.CKIInternals(); ok {
			v.set("cki.gate_calls", float64(ksm.Stats.GateCalls), "(CKI probe container)")
			v.set("cki.pte_updates", float64(ksm.Stats.PTEUpdates), "(CKI probe container)")
			v.set("cki.copy_refreshes", float64(ksm.Stats.CopyRefreshes), "(CKI probe container)")
		}
		eng := c.SMPEngine()
		if eng == nil {
			return fmt.Errorf("%s at %d vCPUs has no SMP engine", rt.name, smpProbeVCPUs)
		}
		var err2 error
		if eng.Stats.Shootdowns == 0 {
			err2 = errors.New("no shootdowns")
		}
		e.ck.check("smp probe "+rt.name, err2)
		shootdowns += eng.Stats.Shootdowns
		ipis += eng.Stats.IPIsSent
		for _, vc := range eng.VCPUs {
			st := vc.MMU.TLB.Stats()
			hits += st.Hits
			lookups += st.Hits + st.Misses
		}
		v.set("backends."+rt.name+".smp_request_us", e.tr.mean("backends.smp_request", rt.name, time.Microsecond),
			fmt.Sprintf("(%d requests)", smpProbeRounds*smpProbeVCPUs))
		v.set("backends."+rt.name+".touch_warm_us", e.tr.mean("backends.touch_warm", rt.name, time.Microsecond),
			fmt.Sprintf("(%d-page range, %d re-touches)", touchPages, touchReps))
	}
	v.set("smp.shootdowns", float64(shootdowns), "(5 runtimes)")
	v.set("smp.ipis", float64(ipis), "(5 runtimes)")
	v.set("tlb.hit_ratio", ratio(float64(hits), float64(lookups)), fmt.Sprintf("(%d lookups)", lookups))
	if err := snapshotProbe(e, v); err != nil {
		return err
	}
	v.set("backends.boot_us", e.tr.mean("backends.boot", "", time.Microsecond), "")
	return nil
}

const (
	// fnHeapPages is the template function's heap, fnHotPages the part
	// an invocation writes (as in the serverless experiment).
	fnHeapPages = 48
	fnHotPages  = 12
	// snapshotReps times encode, decode and restore; forkSiblings
	// forks live at once on one machine.
	snapshotReps = 8
	forkSiblings = 4
)

// fnState builds a function's post-init state: a file with distinct
// content on every page, mapped and written as the heap, its hot head
// written last.
func fnState(k *guest.Kernel) (uint64, error) {
	data := make([]byte, fnHeapPages*mem.PageSize)
	for i := range data {
		data[i] = byte(i/mem.PageSize + i*131)
	}
	fd, err := k.Open("/fn.db", true)
	if err != nil {
		return 0, err
	}
	if _, err := k.Write(fd, data); err != nil {
		return 0, err
	}
	if err := k.Close(fd); err != nil {
		return 0, err
	}
	ino, err := k.FS.Lookup("/fn.db")
	if err != nil {
		return 0, err
	}
	heap := uint64(len(data))
	addr, err := k.MmapCall(heap, guest.ProtRead|guest.ProtWrite, ino, false)
	if err != nil {
		return 0, err
	}
	if err := k.TouchRange(addr, heap, mmu.Write); err != nil {
		return 0, err
	}
	return addr, k.TouchRange(addr, fnHotPages*mem.PageSize, mmu.Write)
}

// snapshotProbe checkpoints a function container on CKI and HVM, times
// encoding and decoding its image, eager restores, and COW and lazy
// forks (each fork then writes its hot pages), and reads the page
// store's sharing counters after the COW forks.
func snapshotProbe(e *env, v *values) error {
	var breaks uint64
	var shared, mapped int
	for _, rt := range snapshotRuntimes {
		c, err := e.boot(rt)
		if err != nil {
			return err
		}
		addr, err := fnState(c.K)
		if err != nil {
			return fmt.Errorf("%s function state: %w", rt.name, err)
		}
		snap, err := backends.Checkpoint(c)
		if err != nil {
			return fmt.Errorf("%s checkpoint: %w", rt.name, err)
		}
		var blob []byte
		for i := 0; i < snapshotReps; i++ {
			end := e.tr.begin("snapshot.encode", rt.name)
			blob = snapshot.Encode(snap)
			end()
		}
		var decoded *snapshot.Snapshot
		for i := 0; i < snapshotReps; i++ {
			end := e.tr.begin("snapshot.decode", rt.name)
			decoded, err = snapshot.Decode(blob)
			end()
			if err != nil {
				return fmt.Errorf("%s decode: %w", rt.name, err)
			}
		}
		var err2 error
		if !bytes.Equal(snapshot.Encode(decoded), blob) {
			err2 = errors.New("decoded image re-encodes differently")
		}
		e.ck.check("snapshot round trip "+rt.name, err2)
		for i := 0; i < snapshotReps; i++ {
			m, err := backends.NewMachine(snap.Config.HostFrames, snap.Config.TLBEntries)
			if err != nil {
				return err
			}
			end := e.tr.begin("backends.restore_eager", rt.name)
			_, err = backends.Restore(m, snap)
			end()
			if err != nil {
				return fmt.Errorf("%s restore: %w", rt.name, err)
			}
		}
		for _, mode := range []backends.ForkMode{backends.ForkCOW, backends.ForkLazy} {
			st, err := forkSiblingsOnce(e, rt.name, snap, addr, mode)
			if err != nil {
				return err
			}
			if mode == backends.ForkCOW {
				breaks += st.Breaks
				shared += st.SharedRefs
				mapped += st.UniquePages + st.SharedRefs
			}
		}
		v.set("snapshot."+rt.name+".encode_us", e.tr.mean("snapshot.encode", rt.name, time.Microsecond), fmt.Sprintf("(%d-byte image)", len(blob)))
		v.set("snapshot."+rt.name+".decode_us", e.tr.mean("snapshot.decode", rt.name, time.Microsecond), "")
		v.set("backends."+rt.name+".restore_eager_ms", e.tr.mean("backends.restore_eager", rt.name, time.Millisecond), "")
		v.set("backends."+rt.name+".fork_cow_ms", e.tr.mean("backends.fork_cow", rt.name, time.Millisecond), "")
		v.set("backends."+rt.name+".fork_lazy_ms", e.tr.mean("backends.fork_lazy", rt.name, time.Millisecond), "")
	}
	v.set("snapshot.cow_breaks", float64(breaks), "(CKI and HVM COW forks)")
	v.set("snapshot.share_ratio", ratio(float64(shared), float64(mapped)), fmt.Sprintf("(%d pages mapped by forks)", mapped))
	return nil
}

// forkSiblingsOnce forks forkSiblings live siblings from snap on one
// machine and page store, each timed and then writing its hot pages,
// returns the store's counters with all siblings live, then discards
// them and checks the store drained.
func forkSiblingsOnce(e *env, rt string, snap *snapshot.Snapshot, addr uint64, mode backends.ForkMode) (snapshot.StoreStats, error) {
	m, err := backends.NewMachine(2*snap.Config.HostFrames, snap.Config.TLBEntries)
	if err != nil {
		return snapshot.StoreStats{}, err
	}
	store := snapshot.NewPageStore(m.HostMem)
	var live []*backends.Container
	for i := 0; i < forkSiblings; i++ {
		end := e.tr.begin("backends.fork_"+mode.String(), rt)
		f, err := backends.ForkFromSnapshot(m, snap, store, 2+i, mode)
		end()
		if err != nil {
			return snapshot.StoreStats{}, fmt.Errorf("%s %v fork: %w", rt, mode, err)
		}
		if err := f.K.TouchRange(addr, fnHotPages*mem.PageSize, mmu.Write); err != nil {
			return snapshot.StoreStats{}, err
		}
		live = append(live, f)
	}
	st := store.Stats()
	for _, f := range live {
		if err := f.Activate(); err != nil {
			return st, err
		}
		if err := backends.Discard(m, f); err != nil {
			return st, err
		}
	}
	var err2 error
	if after := store.Stats(); after.UniquePages != 0 || after.SharedRefs != 0 {
		err2 = fmt.Errorf("store leaked pages: %+v", after)
	}
	e.ck.check("fork store drained "+rt+"/"+mode.String(), err2)
	return st, nil
}

const (
	// fleetProbeArrivals sizes each timed fleet.Run; fleetProbeReps
	// runs of each variant are timed.
	fleetProbeArrivals = 20000
	fleetProbeReps     = 3
	// desProbeArrivals sizes the arrival-generation probe.
	desProbeArrivals = 100000
	// fleetScrapes is how many scrapes the telemetry probe's run takes.
	fleetScrapes = 256
	// fleetBigNodes is the larger fleet of the scaling probe.
	fleetBigNodes = 200
)

// fleetProbe times direct fleet.Run calls on seeded Poisson arrivals:
// both schedulers bare, spread with a request recorder and with a
// telemetry probe attached, and spread on a four times larger fleet.
// Every run must conserve arrivals, and an observed run must return
// the bare run's result.
func fleetProbe(e *env, v *values) error {
	seed := fleetSeed(e.seed)
	var arrivals []des.Arrival
	for i := 0; i < fleetProbeReps; i++ {
		end := e.tr.begin("des.arrivals", "")
		arrivals = des.PoissonArrivals(seed, fleetRate(fleetProbeNodes), fleetHorizon(fleetProbeNodes, desProbeArrivals))
		end()
	}
	v.set("des.arrivals_ms", e.tr.mean("des.arrivals", "", time.Millisecond), fmt.Sprintf("(%d arrivals)", len(arrivals)))

	type variant struct {
		span, sched string
		nodes       int
		observe     func(cfg *fleet.Config)
	}
	variants := []variant{
		{span: "fleet.run", sched: "binpack", nodes: fleetProbeNodes},
		{span: "fleet.run", sched: "spread", nodes: fleetProbeNodes},
		{span: "fleet.run.recorded", sched: "spread", nodes: fleetProbeNodes, observe: func(cfg *fleet.Config) {
			cfg.Requests = trace.NewRequestRecorder()
		}},
		{span: "fleet.run.scraped", sched: "spread", nodes: fleetProbeNodes, observe: func(cfg *fleet.Config) {
			cfg.ScrapeEvery = cfg.Horizon / fleetScrapes
			cfg.Observe = telemetry.NewFleetProbe(metrics.NewRegistry(), telemetry.NewStore(cfg.ScrapeEvery, 0), nil)
		}},
		{span: "fleet.run.big", sched: "spread", nodes: fleetBigNodes},
	}
	var bare []byte
	arrived := map[string]int{}
	for _, vr := range variants {
		for i := 0; i < fleetProbeReps; i++ {
			cfg, err := fleetCell(seed, vr.nodes, vr.sched, fleetProbeArrivals)
			if err != nil {
				return err
			}
			if vr.observe != nil {
				vr.observe(&cfg)
			}
			end := e.tr.begin(vr.span, vr.sched)
			res, err := fleet.Run(cfg)
			end()
			if err != nil {
				return fmt.Errorf("%s %s: %w", vr.span, vr.sched, err)
			}
			arrived[vr.span+"/"+vr.sched] = res.Arrived
			err = fleetInvariants(cfg, res)
			if err == nil && vr.nodes == fleetProbeNodes && vr.sched == "spread" {
				var got []byte
				if got, err = json.Marshal(res); err == nil {
					if bare == nil {
						bare = got
					} else if !bytes.Equal(got, bare) {
						err = errors.New("result differs from the bare spread run")
					}
				}
			}
			e.ck.check(vr.span+" "+vr.sched, err)
		}
	}
	perArrival := func(span, sched string) float64 {
		d := e.tr.durations(span, sched)
		return ratio(medianDur(d), float64(arrived[span+"/"+sched]))
	}
	for _, s := range []string{"binpack", "spread"} {
		v.set("fleet."+s+".ns_per_arrival", perArrival("fleet.run", s), fmt.Sprintf("(%d nodes, %d arrivals)", fleetProbeNodes, arrived["fleet.run/"+s]))
	}
	bareNs := medianDur(e.tr.durations("fleet.run", "spread"))
	v.set("fleet.ns_per_arrival.nodes50", perArrival("fleet.run", "spread"), "(spread)")
	v.set("fleet.ns_per_arrival.nodes200", perArrival("fleet.run.big", "spread"), "(spread)")
	v.set("trace.ns_per_request", ratio(medianDur(e.tr.durations("fleet.run.recorded", "spread"))-bareNs,
		float64(arrived["fleet.run.recorded/spread"])), "(recorded minus bare run)")
	v.set("telemetry.ns_per_scrape", ratio(medianDur(e.tr.durations("fleet.run.scraped", "spread"))-bareNs,
		fleetScrapes), "(scraped minus bare run)")

	cfg, err := fleetCell(seed, fleetProbeNodes, "spread", fleetProbeArrivals)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := fleet.Run(cfg)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	v.set("fleet.allocs_per_arrival", ratio(float64(m1.Mallocs-m0.Mallocs), float64(res.Arrived)), "(spread)")
	v.set("fleet.bytes_per_arrival", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(res.Arrived)), "(spread)")
	return nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianDur is the median of ds in nanoseconds.
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return median(xs)
}
