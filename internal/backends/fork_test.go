package backends

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/snapshot"
)

// Fork-from-snapshot: COW sharing, lazy restore, sibling teardown and
// the touch-in equivalence with an eager restore.

// forkMachine builds a fresh machine sized for opts.
func forkMachine(t *testing.T, opts Options) *Machine {
	t.Helper()
	o := opts.withDefaults()
	m, err := NewMachine(o.HostFrames, o.TLBEntries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// forkWorkload builds the state a serverless function has after init:
// a written file plus a heap of pages pages, all resident — the first
// hot of them re-touched last so they populate the warm TLB (the lazy
// fork's prefetch set).
func forkWorkload(t *testing.T, c *Container, pages, hot int) uint64 {
	t.Helper()
	k := c.K
	fd, err := k.Open("/fn.db", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(fd, []byte("fork me")); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(fd); err != nil {
		t.Fatal(err)
	}
	addr, err := k.MmapCall(uint64(pages)*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.TouchRange(addr, uint64(pages)*mem.PageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	if err := k.TouchRange(addr, uint64(hot)*mem.PageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestForkFingerprintMatchesEagerRestore pins the conservation
// invariant on every runtime: after touching every page back in, a COW
// or lazy fork is canonically indistinguishable from an eager restore
// of the same snapshot — sharing and laziness change *when* state
// materializes, never *what* state results.
func TestForkFingerprintMatchesEagerRestore(t *testing.T) {
	set := append(AllKinds(), struct {
		Kind Kind
		Opts Options
	}{CKI, Options{Nested: true}})
	for _, cfg := range set {
		cfg := cfg
		// A TLB smaller than the workload's heap, so the warm-TLB tags —
		// and with them the lazy prefetch set — cover only the hot tail
		// of the working set.
		cfg.Opts.TLBEntries = 8
		m1 := forkMachine(t, cfg.Opts)
		c1, err := NewOnMachine(m1, cfg.Kind, cfg.Opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(c1.Name, func(t *testing.T) {
			const pages, hot = 24, 3
			addr := forkWorkload(t, c1, pages, hot)
			snap, err := Checkpoint(c1)
			if err != nil {
				t.Fatal(err)
			}

			m2 := forkMachine(t, cfg.Opts)
			eager, err := Restore(m2, snap)
			if err != nil {
				t.Fatalf("eager restore: %v", err)
			}
			if err := eager.K.TouchRange(addr, pages*mem.PageSize, mmu.Write); err != nil {
				t.Fatal(err)
			}
			want, err := eager.FlushedFingerprint()
			if err != nil {
				t.Fatal(err)
			}

			for _, mode := range []ForkMode{ForkCOW, ForkLazy} {
				m3 := forkMachine(t, cfg.Opts)
				store := snapshot.NewPageStore(m3.HostMem)
				// Same ID as the snapshot on a fresh machine, so the
				// fork's PCIDs — and thus its canonical form — are
				// directly comparable to the eager restore's.
				f, err := ForkFromSnapshot(m3, snap, store, snap.ContainerID, mode)
				if err != nil {
					t.Fatalf("%v fork: %v", mode, err)
				}
				if mode == ForkLazy && f.K.Cur.AS.LazyPending() == 0 {
					t.Fatalf("lazy fork deferred nothing")
				}
				if err := f.K.TouchRange(addr, pages*mem.PageSize, mmu.Write); err != nil {
					t.Fatalf("%v touch-in: %v", mode, err)
				}
				if n := f.K.Cur.AS.SharedResident(); n != 0 {
					t.Fatalf("%v fork: %d pages still shared after full write touch-in", mode, n)
				}
				if n := f.K.Cur.AS.LazyPending(); n != 0 {
					t.Fatalf("%v fork: %d pages still lazy after full touch-in", mode, n)
				}
				if mode == ForkCOW && f.K.Stats.ShareBreaks == 0 {
					t.Fatalf("cow fork: no share breaks recorded")
				}
				// A lazy fork may defer its whole heap (empty prefetch
				// set): then write touch-in materializes private pages
				// directly and no share ever forms — still counted.
				if mode == ForkLazy && f.K.Stats.LazyFaults == 0 {
					t.Fatalf("lazy fork: no lazy faults recorded")
				}
				got, err := f.FlushedFingerprint()
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%v fork fingerprint %#016x != eager restore %#016x", mode, got, want)
				}
				// The fully privatized fork holds no store references.
				if st := store.Stats(); st.SharedRefs != 0 || st.UniquePages != 0 {
					t.Fatalf("%v fork: store still holds refs after touch-in: %+v", mode, st)
				}
			}
		})
	}
}

// TestForkSiblingTeardown pins the fork-lineage accounting: evicting
// one COW sibling (Discard = guest teardown + FreeOwned, the supervisor
// and fleet reclaim path) must not reclaim master frames still mapped
// by the other sibling, because masters carry StoreOwner rather than
// any container's ID.
func TestForkSiblingTeardown(t *testing.T) {
	for _, kind := range []Kind{RunC, CKI, PVM} {
		t.Run(kind.String(), func(t *testing.T) {
			const pages, hot = 8, 2
			m := forkMachine(t, Options{})
			c1, err := NewOnMachine(m, kind, Options{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			addr := forkWorkload(t, c1, pages, hot)
			snap, err := Checkpoint(c1)
			if err != nil {
				t.Fatal(err)
			}
			if err := Discard(m, c1); err != nil {
				t.Fatal(err)
			}

			store := snapshot.NewPageStore(m.HostMem)
			a, err := ForkFromSnapshot(m, snap, store, 2, ForkCOW)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ForkFromSnapshot(m, snap, store, 3, ForkCOW)
			if err != nil {
				t.Fatal(err)
			}
			st := store.Stats()
			if st.UniquePages == 0 || st.SharedRefs == 0 {
				t.Fatalf("no sharing established: %+v", st)
			}
			// Every anonymous page of every fork dedups to one master.
			digest := snapshot.PageDigest(&snap.Image, &snap.Image.Procs[0], addr)
			master, ok := store.Lookup(digest)
			if !ok {
				t.Fatal("workload page digest not interned")
			}
			if got := m.HostMem.Owner(master); got != snapshot.StoreOwner {
				t.Fatalf("master frame owner = %d, want StoreOwner", got)
			}

			// A container holding live shares refuses to checkpoint (the
			// image cannot express a cross-container frame dependency).
			var ec *guest.ErrCheckpoint
			if _, err := Checkpoint(a); !errors.As(err, &ec) {
				t.Fatalf("checkpoint of a live-shared fork: %v, want ErrCheckpoint", err)
			}

			// Sibling a writes one page (break), then is evicted whole.
			// (b booted last, so the shared core holds b's context.)
			if err := a.Activate(); err != nil {
				t.Fatal(err)
			}
			if err := a.K.Touch(addr, mmu.Write); err != nil {
				t.Fatal(err)
			}
			if a.K.Stats.ShareBreaks != 1 || store.Stats().Breaks != 1 {
				t.Fatalf("break accounting: guest %d store %d", a.K.Stats.ShareBreaks, store.Stats().Breaks)
			}
			refsBefore := store.Refs(digest)
			if err := Discard(m, a); err != nil {
				t.Fatal(err)
			}
			if got := store.Refs(digest); got >= refsBefore || got == 0 {
				t.Fatalf("refs after eviction = %d (before %d): want fewer but nonzero", got, refsBefore)
			}

			// The surviving sibling still resolves every shared page.
			if !m.HostMem.Allocated(master) {
				t.Fatal("sibling eviction reclaimed a shared master frame")
			}
			if err := b.Activate(); err != nil {
				t.Fatal(err)
			}
			if err := b.K.TouchRange(addr, pages*mem.PageSize, mmu.Read); err != nil {
				t.Fatalf("surviving sibling read: %v", err)
			}
			fd, err := b.K.Open("/fn.db", false)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := b.K.Read(fd, 7); err != nil || string(got) != "fork me" {
				t.Fatalf("surviving sibling file = %q, %v", got, err)
			}

			// Last sibling out: the store drains completely.
			if err := Discard(m, b); err != nil {
				t.Fatal(err)
			}
			if st := store.Stats(); st.UniquePages != 0 || st.SharedRefs != 0 {
				t.Fatalf("store leaked masters after last eviction: %+v", st)
			}
			if m.HostMem.Allocated(master) {
				t.Fatal("master frame leaked after last eviction")
			}
		})
	}
}

// TestForkGateBatch pins the CKI amortization: a COW fork runs its
// whole mapping storm inside one gate batch, so it crosses the KSM
// gate far fewer times than an eager fork of the same image, whose
// per-page faults and PTE stores each pay their own transition.
func TestForkGateBatch(t *testing.T) {
	m1 := forkMachine(t, Options{})
	c1, err := NewOnMachine(m1, CKI, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	forkWorkload(t, c1, 64, 4)
	snap, err := Checkpoint(c1)
	if err != nil {
		t.Fatal(err)
	}
	gateCalls := func(mode ForkMode) uint64 {
		m := forkMachine(t, Options{})
		store := snapshot.NewPageStore(m.HostMem)
		c, err := ForkFromSnapshot(m, snap, store, snap.ContainerID, mode)
		if err != nil {
			t.Fatalf("%v fork: %v", mode, err)
		}
		ksm, _, _, ok := c.CKIInternals()
		if !ok {
			t.Fatal("no KSM internals on a CKI container")
		}
		return ksm.Stats.GateCalls
	}
	eager, cow := gateCalls(ForkEager), gateCalls(ForkCOW)
	if cow*2 >= eager {
		t.Fatalf("gate batching saved too little: cow fork %d gate calls vs eager %d", cow, eager)
	}
}

// TestForkDigestIndex pins the shared digest index: every page a fork
// resolves gives the digest ImageDigests computes for the fork's own
// rewritten image — for a fork under a new container ID, for one that
// keeps the snapshot's ID, and with a zombie and a file-backed mapping
// in the image — and every fork of one snapshot through one store
// reuses the index the first one built.
func TestForkDigestIndex(t *testing.T) {
	for _, kind := range []Kind{RunC, CKI} {
		t.Run(kind.String(), func(t *testing.T) {
			m := forkMachine(t, Options{})
			c1, err := NewOnMachine(m, kind, Options{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkpointWorkload(t, c1)
			ino, err := c1.K.FS.Lookup("/app.db")
			if err != nil {
				t.Fatal(err)
			}
			fa, err := c1.K.MmapCall(2*mem.PageSize, guest.ProtRead, ino, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := c1.K.TouchRange(fa, 2*mem.PageSize, mmu.Read); err != nil {
				t.Fatal(err)
			}
			snap, err := Checkpoint(c1)
			if err != nil {
				t.Fatal(err)
			}
			exited := false
			for _, p := range snap.Image.Procs {
				exited = exited || p.Exited
			}
			if !exited {
				t.Fatal("image has no exited proc")
			}
			if err := Discard(m, c1); err != nil {
				t.Fatal(err)
			}

			store := snapshot.NewPageStore(m.HostMem)
			var index uintptr
			for _, id := range []int{snap.ContainerID, 2} {
				f, err := ForkFromSnapshot(m, snap, store, id, ForkCOW)
				if err != nil {
					t.Fatalf("fork %d: %v", id, err)
				}
				img, _ := rewriteForFork(snap, id)
				want := snapshot.ImageDigests(img)
				fp := f.K.ForkSrc.(*forkPages)
				resolved, file := 0, 0
				for _, pid := range f.K.PIDs() {
					p := f.K.Proc(pid)
					if p.Exited {
						continue
					}
					for _, va := range p.AS.ResidentVAs() {
						key := snapshot.PageKey{PCID: p.AS.PCID, VA: va}
						got, ok := fp.digest(key.PCID, key.VA)
						w, wok := want[key]
						if !ok || !wok || got != w {
							t.Fatalf("fork %d pid %d %+v: digest %#x (%v), ImageDigests %#x (%v)",
								id, pid, key, got, ok, w, wok)
						}
						if va >= fa && va < fa+2*mem.PageSize {
							file++
						}
						resolved++
					}
				}
				if resolved != img.ResidentPages() || file == 0 {
					t.Fatalf("fork %d resolved %d pages (%d file-backed), image has %d resident",
						id, resolved, file, img.ResidentPages())
				}
				if st := store.Stats(); st.DigestIndexes != 1 {
					t.Fatalf("fork %d: store built %d digest indexes, want 1", id, st.DigestIndexes)
				}
				if p := reflect.ValueOf(fp.digests).Pointer(); index == 0 {
					index = p
				} else if p != index {
					t.Fatalf("fork %d did not reuse the cached digest index", id)
				}
			}
		})
	}
}
