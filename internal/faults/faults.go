// Package faults implements deterministic, seeded fault injection for
// the simulated machine. A Plan is a set of rules keyed by injection
// site and occurrence count ("the 3rd frame allocation fails", "every
// 17th virtio kick is dropped"); consumers consult it through the
// narrow Injector interface at fixed points in their flows. Because
// every decision is a pure function of (seed, site, occurrence index),
// replaying the same plan against the same workload yields the same
// faults at the same virtual times — the property the chaos experiments
// and the Fig. 2 containment tests depend on.
package faults

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/wire"
)

// Site names one fault-injection point. Sites are stable strings so
// plans can be described in flags and reports.
type Site string

// The injection sites wired into the simulator.
const (
	// FrameAlloc fails a guest frame allocation during demand paging
	// (transient ENOMEM; the graceful failure mode).
	FrameAlloc Site = "frame-alloc"
	// HostAlloc fails a host physical-frame allocation (machine-wide).
	HostAlloc Site = "host-alloc"
	// PTEWrite corrupts the bits of one guest page-table store (a
	// kernel bug or bit flip; fatal to the guest kernel).
	PTEWrite Site = "pte-write"
	// KernelPF raises an unhandled page fault in guest kernel mode at
	// syscall entry (the classic CVE-class DoS; fatal).
	KernelPF Site = "kernel-pf"
	// DoubleFault makes the guest #PF handler fault again on its own
	// frame push (escalates toward a triple fault; fatal).
	DoubleFault Site = "double-fault"
	// VirtioKick drops a virtio doorbell (lost notification).
	VirtioKick Site = "virtio-kick"
	// IRQDrop loses a posted virtual interrupt in the controller.
	IRQDrop Site = "irq-drop"
	// StuckCLI wedges the guest with its virtual-IF bit clear, so timer
	// ticks pile up undelivered until the watchdog declares it hung.
	StuckCLI Site = "stuck-cli"
	// Hypercall fails a host hypercall with a transient error.
	Hypercall Site = "hypercall"
	// IPILost drops a TLB-shootdown IPI on its way to one target vCPU;
	// the initiator spins until its timeout and re-sends.
	IPILost Site = "ipi-lost"
	// AckDelay stalls one remote vCPU's shootdown acknowledgement (the
	// target has interrupts masked or is mid-VM-exit).
	AckDelay Site = "ack-delay"
	// SnapshotTorn truncates a checkpoint blob mid-write (a torn write:
	// the writer died between the header and the trailer). The decoder
	// must detect the damage by checksum and reject it cleanly.
	SnapshotTorn Site = "snap-torn-write"
)

// Injector is the narrow interface consumers consult. Fire reports
// whether the fault at site triggers on this occurrence; every call
// counts one occurrence. A nil *Plan is a valid no-op Injector, so
// instrumentation sites need no conditionals beyond a nil check on the
// interface itself.
type Injector interface {
	Fire(site Site) bool
}

// Rule arms one site. A zero rule never fires; the trigger conditions
// compose (Nth OR Every OR Prob), and Limit caps total firings.
type Rule struct {
	Site Site
	// Nth fires on exactly the Nth occurrence (1-based) of the site.
	Nth uint64
	// Every fires on every multiple of Every (occurrence%Every == 0).
	Every uint64
	// Prob fires each occurrence with this probability, decided by a
	// hash of (seed, site, occurrence) so replay is exact.
	Prob float64
	// Limit caps how many times this rule may fire (0 = unlimited).
	Limit int
}

// Firing records one triggered fault for the survival report.
type Firing struct {
	Site Site
	// Seq is the 1-based occurrence index of the site that fired.
	Seq uint64
}

// Plan is a deterministic fault plan. It is not safe for concurrent
// use; the simulator is single-threaded per machine.
type Plan struct {
	seed   uint64
	rules  []Rule
	counts map[Site]uint64
	fired  []int
	log    []Firing
}

// NewPlan creates a plan with the given seed and rules.
func NewPlan(seed uint64, rules ...Rule) *Plan {
	return &Plan{
		seed:   seed,
		rules:  append([]Rule(nil), rules...),
		counts: make(map[Site]uint64),
		fired:  make([]int, len(rules)),
	}
}

// DefaultPlan is the chaos-experiment mix: frequent benign faults
// (dropped kicks, transient allocation failures) plus rare fatal ones
// (kernel #PF, double fault, PTE corruption) and one eventual hang.
func DefaultPlan(seed uint64) *Plan {
	return NewPlan(seed,
		Rule{Site: VirtioKick, Every: 17},
		Rule{Site: FrameAlloc, Every: 311},
		Rule{Site: IRQDrop, Prob: 0.01},
		Rule{Site: KernelPF, Nth: 2000, Every: 3500},
		Rule{Site: PTEWrite, Nth: 5000, Every: 9000},
		Rule{Site: DoubleFault, Nth: 2500, Every: 4800},
		Rule{Site: StuckCLI, Nth: 6000, Every: 11000},
		// SMP sites: single-vCPU containers never consult them, so the
		// chaos report is unchanged; multi-vCPU workloads see occasional
		// lost IPIs and slow acks on the shootdown path.
		Rule{Site: IPILost, Every: 97},
		Rule{Site: AckDelay, Prob: 0.02},
	)
}

// Fire implements Injector. A nil plan never fires.
func (p *Plan) Fire(site Site) bool {
	if p == nil {
		return false
	}
	p.counts[site]++
	n := p.counts[site]
	for i := range p.rules {
		r := &p.rules[i]
		if r.Site != site {
			continue
		}
		if r.Limit > 0 && p.fired[i] >= r.Limit {
			continue
		}
		if !r.triggers(p.seed, n) {
			continue
		}
		p.fired[i]++
		p.log = append(p.log, Firing{Site: site, Seq: n})
		return true
	}
	return false
}

// triggers decides one occurrence, purely from (seed, site, n).
func (r *Rule) triggers(seed, n uint64) bool {
	if r.Nth != 0 && n == r.Nth {
		return true
	}
	if r.Every != 0 && n%r.Every == 0 {
		return true
	}
	if r.Prob > 0 {
		h := splitmix64(seed ^ siteHash(r.Site) ^ n)
		return float64(h>>11)/(1<<53) < r.Prob
	}
	return false
}

// Count returns how many occurrences of site the plan has seen.
func (p *Plan) Count(site Site) uint64 {
	if p == nil {
		return 0
	}
	return p.counts[site]
}

// Log returns every firing so far, in order.
func (p *Plan) Log() []Firing {
	if p == nil {
		return nil
	}
	return append([]Firing(nil), p.log...)
}

// Fired returns the total number of injected faults.
func (p *Plan) Fired() int {
	if p == nil {
		return 0
	}
	return len(p.log)
}

// Seed returns the plan's seed.
func (p *Plan) Seed() uint64 {
	if p == nil {
		return 0
	}
	return p.seed
}

// Reset clears occurrence counts and the firing log, so the identical
// plan can be replayed from scratch.
func (p *Plan) Reset() {
	p.counts = make(map[Site]uint64)
	p.fired = make([]int, len(p.rules))
	p.log = nil
}

// Summary renders firings grouped by site ("kernel-pf×2 virtio-kick×40").
func (p *Plan) Summary() string {
	if p == nil || len(p.log) == 0 {
		return "none"
	}
	bySite := make(map[Site]int)
	for _, f := range p.log {
		bySite[f.Site]++
	}
	sites := make([]string, 0, len(bySite))
	for s := range bySite {
		sites = append(sites, string(s))
	}
	sort.Strings(sites)
	parts := make([]string, 0, len(sites))
	for _, s := range sites {
		parts = append(parts, fmt.Sprintf("%s×%d", s, bySite[Site(s)]))
	}
	return strings.Join(parts, " ")
}

// Child derives a per-container seed from a cluster seed, so each
// container on a shared machine replays its own independent stream.
func Child(seed uint64, id int) uint64 {
	return splitmix64(seed + 0x9e3779b97f4a7c15*uint64(id+1))
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed hash used
// for the probabilistic rules so every decision is replayable.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func siteHash(s Site) uint64 { return wire.FNV64a(string(s)) }
