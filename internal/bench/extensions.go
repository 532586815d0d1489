package bench

import (
	"io"

	"repro/internal/backends"
	"repro/internal/cki"
	"repro/internal/clock"
	"repro/internal/hw"
)

// ExtPKU quantifies the rejected PKU-based design: same domain
// isolation, but the guest kernel lives in user mode, so exceptions are
// injected across rings (~750ns extra) and syscalls pay PKU domain
// switches.
func ExtPKU(scale int, w io.Writer) error {
	t := NewTable("Design-PKU vs Design-PKS (CKI)", "flow", "Design-PKS", "Design-PKU", "paper note")
	pks := backends.MustNew(backends.CKI, backends.Options{})
	pku := backends.MustNew(backends.CKI, backends.Options{DesignPKU: true})
	t.Row("syscall (ns)",
		fmtNs(pks.MeasureSyscall()), fmtNs(pku.MeasureSyscall()),
		"PKU adds wrpkru + ring crossings")
	a, err := pks.MeasureAnonFault(64)
	if err != nil {
		return err
	}
	b, err := pku.MeasureAnonFault(64)
	if err != nil {
		return err
	}
	t.Row("anon pgfault (ns)", fmtNs(a), fmtNs(b),
		"paper: injection adds ~750ns to a ~1000ns fault")
	_, err = t.WriteTo(w)
	return err
}

// ExtGate quantifies what eliminating PTI/IBRS from the KSM gate saves
// (§3.3: "hundreds of CPU cycles").
func ExtGate(scale int, w io.Writer) error {
	t := NewTable("KSM gate hardening ablation", "flow", "lean gate", "hardened gate", "delta")
	lean := backends.MustNew(backends.CKI, backends.Options{})
	hard := backends.MustNew(backends.CKI, backends.Options{HardenKSMGate: true})
	a, err := lean.MeasureAnonFault(64)
	if err != nil {
		return err
	}
	b, err := hard.MeasureAnonFault(64)
	if err != nil {
		return err
	}
	t.Row("anon pgfault (ns)", fmtNs(a), fmtNs(b), fmtNs(b-a))
	t.Note("the lean gate is safe because only container-private data is mapped in the KSM")
	_, err = t.WriteTo(w)
	return err
}

// ExtFuture demonstrates the §9 directions with measured numbers.
func ExtFuture(scale int, w io.Writer) error {
	costs := clock.DefaultCosts()
	t := NewTable("Future work on the same PKS machinery", "scenario", "cost/op (ns)", "baseline (ns)")
	t.Row("ring-0 driver sandbox call", fmtNs(cki.SandboxCallCost(costs)),
		fmtNs(cki.MicrokernelCallCost(costs))+" (microkernel IPC)")

	// In-kernel syscall elision, measured live.
	c := backends.MustNew(backends.CKI, backends.Options{})
	app := &cki.InKernelApp{CPU: c.CPU, Clk: c.Clk, Costs: costs}
	mode := c.CPU.Mode()
	c.CPU.SetMode(hw.ModeKernel)
	start := c.Clk.Now()
	if err := app.Call(costs.GetpidWork); err != nil {
		return err
	}
	inKernel := c.Clk.Now() - start
	c.CPU.SetMode(mode)
	t.Row("in-kernel getpid-class service", fmtNs(inKernel),
		fmtNs(app.SyscallCost(costs.GetpidWork))+" (user-mode syscall)")
	_, err := t.WriteTo(w)
	return err
}

func fmtNs(t clock.Time) string {
	return t.String()
}
