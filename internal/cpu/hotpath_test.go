package cpu

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/program"
)

// TestRunErrorReportsCurrentCycles pins the error path of
// RunContext: a program that faults mid-run (here by running off the end
// of its segment into unmapped space) must still report the cycle count
// at the fault, not the stale value from the previous Stats refresh.
func TestRunErrorReportsCurrentCycles(t *testing.T) {
	b := asm.New(0)
	b.MovI(5, 500)
	b.Label("loop")
	b.AddI(5, -1, 5)
	b.CmpI(isa.CmpLt, 1, 2, 0, 5)
	b.BrCond(1, "loop")
	// No halt: after the loop the CPU fetches past the segment end.
	c, _ := buildMachine(t, b, nil)
	st, err := c.Run(0)
	if err == nil {
		t.Fatal("run off the segment end did not fault")
	}
	if !strings.Contains(err.Error(), "unmapped") {
		t.Fatalf("unexpected fault: %v", err)
	}
	if st.Cycles == 0 {
		t.Fatal("faulting run reported zero cycles")
	}
	if st.Cycles != c.Now() {
		t.Fatalf("Stats.Cycles = %d but clock is at %d: stale cycles on the error path", st.Cycles, c.Now())
	}
	if st.Retired < 500 {
		t.Fatalf("retired only %d instructions before the fault", st.Retired)
	}
}

// TestReusedCPUBitIdenticalStats runs the same image twice on one machine
// with Reset between runs and demands bit-identical CPU and cache
// statistics — the regression net for stale microarchitectural state
// (lastFetchLine, hook next-fire times, scoreboard, victim/way memos)
// surviving a Reset. The variants re-prove the invariant with each
// optional observation subsystem enabled: CPI-stack accounting with a
// loop image attached (observe), the simulated-execution profiler, and
// both at once under a telemetry-style counting hook — a poll hook that
// only reads state, the shape the harness's metric wiring uses.
func TestReusedCPUBitIdenticalStats(t *testing.T) {
	const base, n = 0x10000, 400
	variants := []struct {
		name       string
		accounting bool
		profiler   uint64 // sampling interval; 0 = off
		telemetry  bool
	}{
		{name: "plain"},
		{name: "observe", accounting: true},
		{name: "profiler", profiler: 4099},
		{name: "observe+profiler+telemetry", accounting: true, profiler: 4099, telemetry: true},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			b := sumLoop(base, n)
			r, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			cs := program.NewCodeSpace()
			if err := cs.AddSegment(&program.Segment{Name: "main", Base: r.Base, Bundles: r.Bundles}); err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Accounting = v.accounting
			c := New(cfg, cs, memsys.NewMemory(), memsys.NewHierarchy(memsys.DefaultConfig()), nil)
			c.SetPC(r.Base)
			for i := 0; i < n; i++ {
				c.Mem.WriteN(base+uint64(i*8), 8, uint64(i*7))
			}
			if v.accounting {
				loopAddr, _ := r.AddrOf("loop")
				c.SetImage(&program.Image{Name: "sumloop", Loops: []program.LoopInfo{
					{ID: 1, Name: "loop", Head: loopAddr, BodyStart: loopAddr, BodyEnd: loopAddr + 2*isa.BundleBytes},
				}})
			}
			if v.profiler != 0 {
				c.EnableProfiler(v.profiler)
			}
			// A poll hook with a charge exercises the hook schedule reset
			// too; the telemetry variant adds a read-only counting hook.
			c.AddPollHook(700, func(uint64) uint64 { return 3 })
			var polls uint64
			if v.telemetry {
				c.AddPollHook(900, func(uint64) uint64 { polls++; return 0 })
			}

			type observation struct {
				stats Stats
				sum   uint64
				hier  [4]memsys.CacheStats
				stack CPIStack
				loops map[int]CPIStack
				prof  map[uint64]PCSample
				polls uint64
			}
			observe := func() observation {
				o := observation{
					stats: run(t, c),
					sum:   c.GR[8],
					hier:  [4]memsys.CacheStats{c.Hier.L1D.Stats, c.Hier.L1I.Stats, c.Hier.L2.Stats, c.Hier.L3.Stats},
					polls: polls,
				}
				o.stack, _ = c.Accounting()
				o.loops = c.LoopAccounting()
				o.prof = c.ProfileSamples()
				return o
			}

			o1 := observe()
			// Reset the machine and the hierarchy (which belongs to the
			// caller, per the Reset contract) and re-run the identical image.
			c.Reset()
			c.Hier.Reset()
			c.SetPC(r.Base)
			polls = 0
			o2 := observe()

			if o1.stats != o2.stats {
				t.Fatalf("reused CPU diverged:\n run1 %+v\n run2 %+v", o1.stats, o2.stats)
			}
			if o1.sum != o2.sum {
				t.Fatalf("architectural divergence: sum %d then %d", o1.sum, o2.sum)
			}
			if o1.hier != o2.hier {
				t.Fatalf("cache stats diverged:\n run1 %+v\n run2 %+v", o1.hier, o2.hier)
			}
			if o1.stack != o2.stack {
				t.Fatalf("CPI stack diverged:\n run1 %+v\n run2 %+v", o1.stack, o2.stack)
			}
			if !reflect.DeepEqual(o1.loops, o2.loops) {
				t.Fatalf("per-loop CPI stacks diverged:\n run1 %+v\n run2 %+v", o1.loops, o2.loops)
			}
			if !reflect.DeepEqual(o1.prof, o2.prof) {
				t.Fatalf("profiler samples diverged:\n run1 %+v\n run2 %+v", o1.prof, o2.prof)
			}
			if o1.polls != o2.polls {
				t.Fatalf("telemetry hook fired %d then %d times", o1.polls, o2.polls)
			}
			if v.accounting {
				if _, ok := o1.loops[1]; !ok {
					t.Fatal("loop attribution produced no stack for loop 1 — variant not exercising accounting")
				}
			}
			if v.profiler != 0 && len(o1.prof) == 0 {
				t.Fatal("profiler produced no samples — variant not exercising the profiler")
			}
		})
	}
}

// TestHookCatchUpFiresOncePerBoundary pins the catch-up semantics of the
// next-event hook scheduler: when a hook's own charge advances the clock
// past several of its scheduled fire times, the skipped times are not
// delivered late — the hook fires at most once per bundle boundary and
// its schedule jumps past the charge.
func TestHookCatchUpFiresOncePerBoundary(t *testing.T) {
	const interval, charge = 100, 10_000
	c, _ := buildMachine(t, sumLoop(0x10000, 3000), nil)
	var fires []uint64
	c.AddPollHook(interval, func(now uint64) uint64 {
		fires = append(fires, now)
		if len(fires) == 1 {
			return charge
		}
		return 0
	})
	run(t, c)
	if len(fires) < 3 {
		t.Fatalf("hook fired only %d times", len(fires))
	}
	// At most once per bundle boundary: fire times strictly increase (the
	// schedule jumps past the current cycle after every fire, so the same
	// boundary can never deliver a hook twice).
	for i := 1; i < len(fires); i++ {
		if fires[i] <= fires[i-1] {
			t.Fatalf("fires %d and %d both at cycle %d", i-1, i, fires[i])
		}
	}
	// The charge pushed the clock 10k cycles; the 100 skipped fire times
	// must not be delivered as a burst afterwards.
	if gap := fires[1] - fires[0]; gap < charge {
		t.Fatalf("first gap %d < charge %d: skipped fire times were delivered late", gap, charge)
	}
}

// TestInterleavedHooksStableOrder runs two hooks with different intervals
// and checks the merged fire sequence: time never goes backwards, ties on
// the same boundary fire in registration order, and each hook keeps its
// own cadence.
func TestInterleavedHooksStableOrder(t *testing.T) {
	type fire struct {
		id  int
		now uint64
	}
	c, _ := buildMachine(t, sumLoop(0x10000, 5000), nil)
	var seq []fire
	c.AddPollHook(300, func(now uint64) uint64 { seq = append(seq, fire{0, now}); return 0 })
	c.AddPollHook(500, func(now uint64) uint64 { seq = append(seq, fire{1, now}); return 0 })
	run(t, c)
	var n0, n1 int
	last := [2]uint64{^uint64(0), ^uint64(0)}
	for i, f := range seq {
		if i > 0 && f.now < seq[i-1].now {
			t.Fatalf("fire %d at %d after fire at %d: time went backwards", i, f.now, seq[i-1].now)
		}
		if i > 0 && f.now == seq[i-1].now && seq[i-1].id > f.id {
			t.Fatalf("tie at cycle %d fired out of registration order", f.now)
		}
		// Per hook, fire times strictly increase: one fire per boundary.
		if last[f.id] != ^uint64(0) && f.now <= last[f.id] {
			t.Fatalf("hook %d fired twice at cycle %d", f.id, f.now)
		}
		last[f.id] = f.now
		if f.id == 0 {
			n0++
		} else {
			n1++
		}
	}
	if n0 == 0 || n1 == 0 {
		t.Fatalf("hook fire counts %d/%d: one hook starved", n0, n1)
	}
	if n0 < n1 {
		t.Fatalf("300-cycle hook fired %d times, 500-cycle hook %d: cadence lost", n0, n1)
	}
}

// patchableLoop is the self-modifying-code scaffold shared by the
// predecode-invalidation test: a long countdown, then a tail that sets r9
// and halts. The tail bundle is the patch target.
func patchableLoop() (*asm.Builder, string) {
	b := asm.New(0)
	b.MovI(5, 100_000)
	b.Label("loop")
	b.AddI(5, -1, 5)
	b.CmpI(isa.CmpLt, 1, 2, 0, 5)
	b.BrCond(1, "loop")
	b.Label("tail")
	b.MovI(9, 111)
	b.Halt()
	return b, "tail"
}

// TestPatchUnpatchExecutesLikeNeverPatched proves the predecoded code
// image tracks writes in both directions: a machine whose tail bundle is
// patched to a branch and then restored mid-run executes bundle-for-bundle
// like a machine that was never patched — identical architectural result
// and bit-identical statistics. A stale predecode slab would either
// execute the patched branch (wrong r9) or diverge in timing.
func TestPatchUnpatchExecutesLikeNeverPatched(t *testing.T) {
	build := func(patch bool) (Stats, uint64) {
		b, tail := patchableLoop()
		r, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		cs := program.NewCodeSpace()
		seg := &program.Segment{Name: "main", Base: 0, Bundles: r.Bundles}
		if err := cs.AddSegment(seg); err != nil {
			t.Fatal(err)
		}
		c := New(DefaultConfig(), cs, memsys.NewMemory(), memsys.NewHierarchy(memsys.DefaultConfig()), nil)
		tailAddr, ok := r.AddrOf(tail)
		if !ok {
			t.Fatal("tail label missing")
		}
		orig := seg.Bundles[tailAddr/isa.BundleBytes]
		c.AddPollHook(1000, func(uint64) uint64 {
			if patch {
				// Patch the tail to a branch, then restore the original:
				// both writes must reach the predecoded image.
				if err := cs.Write(tailAddr, isa.BranchBundle(0x100000)); err != nil {
					t.Error(err)
				}
				if err := cs.Write(tailAddr, orig); err != nil {
					t.Error(err)
				}
			}
			return 0
		})
		c.SetPC(0)
		st := run(t, c)
		return st, c.GR[9]
	}

	plainStats, plainR9 := build(false)
	patchedStats, patchedR9 := build(true)
	if plainR9 != 111 || patchedR9 != 111 {
		t.Fatalf("r9 = %d/%d, want 111/111 (unpatched tail must execute)", plainR9, patchedR9)
	}
	if plainStats != patchedStats {
		t.Fatalf("patched-then-unpatched run diverged from never-patched:\n plain   %+v\n patched %+v",
			plainStats, patchedStats)
	}
}

// TestRunLoopZeroAllocs verifies the tentpole's zero-allocation claim for
// the whole run loop — fetch, dispatch, hierarchy accesses, hook
// scheduling — using the same Reset/Run recycle the benchmarks use.
func TestRunLoopZeroAllocs(t *testing.T) {
	const base, n = 0x10000, 256
	c, r := buildMachine(t, sumLoop(base, n), nil)
	for i := 0; i < n; i++ {
		c.Mem.WriteN(base+uint64(i*8), 8, uint64(i))
	}
	// Prime once: first touches of simulated memory allocate pages.
	c.Run(0)
	allocs := testing.AllocsPerRun(10, func() {
		c.Reset()
		c.Hier.Reset()
		c.SetPC(r.Base)
		if _, err := c.Run(0); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("run loop allocates %.1f times per run, want 0", allocs)
	}
}

// TestRunLoopAllocsObserved extends TestRunLoopZeroAllocs to the layers
// the harness switches on for observation and telemetry: CPI-stack
// accounting with a loop image and the cycle-sampling profiler. Neither
// allocates per executed bundle or per sample. Each allocates once per
// distinct loop it attributes cycles to and once per distinct bundle it
// samples, so their allocations are bounded by code size, not run length.
func TestRunLoopAllocsObserved(t *testing.T) {
	const base, n = 0x10000, 256
	b := sumLoop(base, n)
	r, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cs := program.NewCodeSpace()
	if err := cs.AddSegment(&program.Segment{Name: "main", Base: r.Base, Bundles: r.Bundles}); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Accounting = true
	c := New(cfg, cs, memsys.NewMemory(), memsys.NewHierarchy(memsys.DefaultConfig()), nil)
	for i := 0; i < n; i++ {
		c.Mem.WriteN(base+uint64(i*8), 8, uint64(i))
	}
	loopAddr, _ := r.AddrOf("loop")
	c.SetImage(&program.Image{Name: "sumloop", Loops: []program.LoopInfo{
		{ID: 1, Name: "loop", Head: loopAddr, BodyStart: loopAddr, BodyEnd: loopAddr + 2*isa.BundleBytes},
	}})
	c.EnableProfiler(97)
	c.SetPC(r.Base)
	// Prime once: first touches of simulated memory allocate pages, and
	// the profiler's sample map grows to its final size.
	run(t, c)

	// As in testing.AllocsPerRun: one P keeps other goroutines' mallocs
	// out of the count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	for i := 0; i < 3; i++ {
		// Reset re-creates the accounting state (its map and the stack of
		// code outside loops); the run itself starts after that.
		c.Reset()
		c.Hier.Reset()
		c.SetPC(r.Base)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st := run(t, c)
		runtime.ReadMemStats(&after)

		loops, cells := len(c.LoopAccounting()), len(c.ProfileSamples())
		if loops < 2 || cells == 0 {
			t.Fatalf("run attributed %d loops and sampled %d bundles; the check would be vacuous", loops, cells)
		}
		// Reset already made the outside-loops stack (-1); the run adds
		// the others and one cell per sampled bundle.
		want := uint64(loops - 1 + cells)
		if got := after.Mallocs - before.Mallocs; got != want {
			t.Fatalf("run of %d instructions allocated %d times, want %d (%d loops, %d sampled bundles)",
				st.Retired, got, want, loops-1, cells)
		}
	}
}
