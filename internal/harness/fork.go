package harness

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/memsys"
	"repro/internal/pmu"
	"repro/internal/program"
)

// The checkpoint/fork execution engine (DESIGN.md §16). A policy sweep
// runs the same benchmark once per prefetch policy, but every ADORE run
// of one (workload, compile-options) pair executes an identical prefix:
// the pipeline's first policy-dependent decision happens only when a
// stable phase triggers trace optimization. The fork engine runs that
// shared prefix ONCE per group, snapshots the whole machine at the
// policy-divergence point, and resumes each remaining configuration from
// the snapshot — bit-identical to a straight run, because the simulator
// is deterministic and the snapshot captures every run-varying bit of
// state (CPU, memory, caches, MSHRs, PMU, controller, code image).
// Configurations whose policy decisions all match a group-mate's do not
// even resume: they ride along its run as lockstep shadows
// (core.Shadow) and are served that run. Engine.RunJobs (engine.go), the
// engine's one scheduler, forms the groups and runs their phases.

// ForkDivergence is the captureMin value asking RunForkProbeImage to
// keep re-capturing at every snapshot-worthy hook boundary and freeze
// only at the run's first policy-dependent decision — the fork engine's
// mode. A finite captureMin instead freezes the capture at the first
// eligible boundary at or after that cycle (the fuzzer's mode).
const ForkDivergence = ^uint64(0)

// ForkSnapshot is a frozen machine checkpoint: the complete run-varying
// state of the CPU, data memory, cache hierarchy, PMU, controller, and
// patched code image at one hook boundary. Snapshots are immutable once
// the probe run finishes; any number of continuations may resume from
// one concurrently (memory is forked copy-on-write, everything else is
// deep-copied per continuation by Restore).
type ForkSnapshot struct {
	// Cycle is the hook boundary the snapshot was captured at.
	Cycle uint64
	// Diverged reports that the capture was frozen by the probe run's
	// first policy-dependent decision (rather than by a captureMin
	// cycle): the snapshot precedes that decision, so a continuation
	// with a different prefetch policy or selector re-makes it under
	// its own configuration.
	Diverged bool

	cpu    *cpu.Snapshot
	code   *program.CodeSnapshot
	mem    *memsys.Memory // frozen fork; continuations Fork() it again
	hier   *memsys.HierarchySnapshot
	pmu    *pmu.Snapshot
	ctrl   *core.Snapshot
	series []SeriesPoint
}

// forkProbe captures ForkSnapshots while a probe run executes. Captures
// happen at hook boundaries — before the due hooks fire — and only at
// boundaries with profile windows pending (the only boundaries that can
// reach a policy decision) or past minCycle. The latest capture wins
// until the probe freezes: at the first policy-dependent decision
// (OnPolicyPoint), or at the first eligible boundary at/after minCycle.
type forkProbe struct {
	minCycle uint64
	snap     *ForkSnapshot
	frozen   bool
}

func (pr *forkProbe) arm(m *cpu.CPU, mem *memsys.Memory, code *program.CodeSpace,
	hier *memsys.Hierarchy, p *pmu.PMU, ctrl *core.Controller, res *RunResult) error {
	if ctrl == nil {
		return errors.New("fork probe requires an ADORE run")
	}
	m.OnHookBoundary(func(now uint64) {
		if pr.frozen {
			return
		}
		if ctrl.PendingWindows() == 0 && now < pr.minCycle {
			return
		}
		pr.snap = &ForkSnapshot{
			Cycle:  now,
			cpu:    m.Snapshot(),
			code:   code.Snapshot(),
			mem:    mem.Fork(),
			hier:   hier.Snapshot(),
			pmu:    p.Snapshot(),
			ctrl:   ctrl.Snapshot(),
			series: append([]SeriesPoint(nil), res.Series...),
		}
		if now >= pr.minCycle {
			pr.frozen = true
		}
	})
	ctrl.OnPolicyPoint = func(now uint64) {
		// In divergence mode the first policy decision freezes the
		// capture; a finite minCycle (the fuzzer's mode, same-config
		// resume) keeps capturing — snapshots past the divergence are
		// valid when the continuation's configuration is the probe's.
		if pr.frozen || pr.minCycle != ForkDivergence {
			return
		}
		pr.frozen = true
		// The decision fires from a poll hook, after this boundary's
		// capture (pending windows make the boundary eligible), so the
		// frozen snapshot sits exactly at the diverging boundary.
		if pr.snap != nil {
			pr.snap.Diverged = true
		}
	}
	return nil
}

// restore rewinds a freshly assembled machine to the snapshot. Order
// matters: the code image first (re-applying the probe's patches through
// the change hooks keeps the predecode coherent), then CPU, hierarchy,
// PMU, and controller — the PMU after the controller's Attach has
// Start()ed it, the controller last so its restored pending windows are
// what the re-entered poll hook consumes. The machine's first step
// re-enters the same hook boundary and re-makes the pending policy
// decision under ITS OWN policy closures — that is the fork.
func (snap *ForkSnapshot) restore(m *cpu.CPU, code *program.CodeSpace,
	hier *memsys.Hierarchy, p *pmu.PMU, ctrl *core.Controller, res *RunResult) error {
	if ctrl == nil {
		return errors.New("fork resume requires an ADORE run")
	}
	if err := code.Restore(snap.code); err != nil {
		return err
	}
	if err := m.Restore(snap.cpu); err != nil {
		return err
	}
	if err := hier.Restore(snap.hier); err != nil {
		return err
	}
	if err := p.Restore(snap.pmu); err != nil {
		return err
	}
	if err := ctrl.Restore(snap.ctrl); err != nil {
		return err
	}
	res.Series = append(res.Series, snap.series...)
	return nil
}

// RunForkProbeImage runs img under cfg to completion — the returned
// RunResult is a normal, full run — while capturing a ForkSnapshot. With
// captureMin == ForkDivergence the snapshot freezes at the run's first
// policy-dependent decision; a finite captureMin freezes it at the first
// snapshot-worthy hook boundary at or after that cycle. A nil snapshot
// (with a nil error) means no eligible boundary was reached — e.g. the
// run never grew a stable phase; callers fall back to straight runs.
func RunForkProbeImage(ctx context.Context, img *program.Image, cfg RunConfig, captureMin uint64) (*RunResult, *ForkSnapshot, error) {
	return runForkProbe(ctx, img, cfg, captureMin, nil)
}

// runForkProbe is RunForkProbeImage with lockstep shadows attached.
func runForkProbe(ctx context.Context, img *program.Image, cfg RunConfig, captureMin uint64, shadows []core.Config) (*RunResult, *ForkSnapshot, error) {
	pr := &forkProbe{minCycle: captureMin}
	res, err := runImage(ctx, img, cfg, pr, nil, shadows)
	if err != nil {
		return nil, nil, err
	}
	return res, pr.snap, nil
}

// RunForkedImage resumes img from snap under cfg, simulating only the
// continuation. cfg must assemble a machine structurally identical to
// the probe's (same CPU/hierarchy/sampling configuration, same hooks) —
// the restore validates this — but its prefetch policy and selector may
// differ when the snapshot was taken at the divergence point.
func RunForkedImage(ctx context.Context, img *program.Image, cfg RunConfig, snap *ForkSnapshot) (*RunResult, error) {
	return runImage(ctx, img, cfg, nil, snap, nil)
}

// forkPrefixFingerprint fingerprints everything of a RunConfig that
// shapes the shared prefix of an ADORE run — i.e. the full fingerprint
// with the policy-divergent fields (prefetch policy, selector)
// neutralized. Jobs with equal compile keys and equal prefix
// fingerprints execute identical simulations up to the first policy
// decision, which is the fork engine's grouping invariant.
func forkPrefixFingerprint(cfg RunConfig) string {
	cfg.Core.Policy = ""
	cfg.Core.Selector = false
	return cfg.Fingerprint()
}

// forkable reports whether a job can join a fork group: an ADORE run
// with no observation hook (hooked runs see every optimization attempt,
// including the probe's) and no DEAR capture.
func forkable(cfg RunConfig) bool {
	return cfg.ADORE && cfg.OnOptimize == nil && !cfg.CaptureDear
}

// ForkStats summarizes one RunJobs sweep's warmup sharing and merging; a
// sweep that formed no group reports every job as a straight run.
type ForkStats struct {
	// Groups is the number of fork groups that captured a usable
	// snapshot; ForkedRuns the continuations resumed from one;
	// MergedRuns the members whose every policy decision matched a
	// group-mate's, served that run without simulating; StraightRuns
	// everything else (probes, baselines, un-forkable jobs, and members
	// left over in a group without a snapshot). The three run counts sum
	// to the sweep's job count.
	Groups       int
	ForkedRuns   int
	MergedRuns   int
	StraightRuns int

	// WarmupStraight is the total simulated warmup a non-forked sweep
	// spends on the grouped jobs (members × fork-point cycles, summed
	// over groups); WarmupForked is what the forked sweep simulated for
	// the same work (each group's fork-point cycles once).
	WarmupStraight uint64
	WarmupForked   uint64
}

// WarmupReduction is the sweep's warmup-cycle reduction factor
// (straight / forked); 1.0 when nothing forked.
func (s *ForkStats) WarmupReduction() float64 {
	if s.WarmupForked == 0 {
		return 1
	}
	return float64(s.WarmupStraight) / float64(s.WarmupForked)
}

// mergedResult is a merged member's result: its leader's run record with
// the member's own controller statistics. The architectural state is
// copied, the final memory and code space are shared read-only, and the
// leader's controller stays the leader's.
func mergedResult(leader *RunResult, sh *core.Shadow) *RunResult {
	r := *leader
	arch := *leader.Arch
	r.Arch = &arch
	cs := sh.Stats(*leader.Core)
	r.Core = &cs
	r.Controller = nil
	return &r
}
