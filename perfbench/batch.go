package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/compiler"
	"repro/internal/harness"
	"repro/internal/memsys"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// The two batch workloads run the experiment drivers on a fresh engine
// with one worker, whose build cache the set-up fills. An op is one engine
// job (one simulation, or one Table 1 profile/recompile/measure chain).
//
// Their op times and simulation rate are in process CPU time, not wall
// time: with one worker the jobs run one at a time, so the CPU time spent
// during a job is that job's host cost (plus the collector's), and unlike
// wall time it leaves out the time the hypervisor gives this machine's
// CPUs to other tenants, which on a shared 2-vCPU host moved iteration
// wall times by up to 20 % while CPU times moved by 6 %.

var paperSweep = workload{
	name:  "paper-sweep",
	setUp: func(ctx context.Context, _ int64, tr *tracer) (instance, error) { return setUpBatch(false, tr) },
	probe: probeBatch,
}

var policyFork = workload{
	name:  "policy-fork",
	setUp: func(ctx context.Context, _ int64, tr *tracer) (instance, error) { return setUpBatch(true, tr) },
	probe: probeBatch,
}

var (
	goldenPath       = filepath.Join("internal", "harness", "testdata", "golden", "corpus.json")
	policyGoldenPath = filepath.Join("internal", "harness", "testdata", "golden", "policy_matrix.json")
)

type batch struct {
	fork   bool
	cfg    harness.ExpConfig
	eng    *harness.Engine
	reg    *metrics.Registry
	golden *harness.GoldenCorpus
	policy *harness.PolicyGolden
	builds []*compiler.BuildResult // O2 builds in workloads.All order
	clock  opClock
}

// compileSpec is the experiment drivers' compile unit for one benchmark:
// benchmark@scale with the default options at the given level.
func compileSpec(b workloads.Benchmark, scale float64, level compiler.OptLevel) harness.CompileSpec {
	opts := compiler.DefaultOptions()
	opts.Level = level
	return harness.CompileSpec{Name: fmt.Sprintf("%s@%g", b.Name, scale), Kernel: b.Kernel, Options: opts}
}

// setUpBatch loads the golden file and compiles every kernel the sweep
// runs into a fresh engine's build cache.
func setUpBatch(fork bool, tr *tracer) (instance, error) {
	b := &batch{fork: fork, reg: metrics.NewRegistry(), cfg: harness.GoldenExpConfig()}
	b.clock.open = map[string]opStart{}
	b.eng = harness.NewEngine(harness.EngineConfig{Parallelism: 1, OnProgress: b.clock.progress, Metrics: b.reg})
	b.clock.eng = b.eng
	b.cfg.Engine = b.eng
	var err error
	if fork {
		b.policy, err = harness.LoadPolicyGolden(policyGoldenPath)
	} else {
		b.golden, err = harness.LoadGolden(goldenPath)
	}
	if err != nil {
		return nil, err
	}
	levels := []compiler.OptLevel{compiler.O2, compiler.O3}
	if fork {
		levels = levels[:1]
	}
	for _, bench := range workloads.All(b.cfg.Scale) {
		for _, level := range levels {
			spec := compileSpec(bench, b.cfg.Scale, level)
			id := tr.begin("harness.BuildCache.Build", "compiler", 0, spec.Name+"/"+level.String())
			build, err := b.eng.Cache().Build(spec)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			if level == compiler.O2 {
				b.builds = append(b.builds, build)
			}
		}
	}
	return b, nil
}

func (b *batch) close() {}

// opStart is an engine job in flight.
type opStart struct {
	cpu  float64 // process CPU seconds when the job started
	hits uint64  // result-cache hits when the job started
	span int
}

// opClock times every engine job from the engine's progress events. With
// one worker, jobs run one at a time, so a job that left the result
// cache's hit count unchanged ran a simulation (a miss).
type opClock struct {
	mu     sync.Mutex
	eng    *harness.Engine
	tr     *tracer
	parent int // span of the driver call in progress
	open   map[string]opStart
	ops    []float64 // CPU ms per job
	misses []float64 // CPU ms per job that simulated
	failed int
}

func (c *opClock) progress(p harness.Progress) {
	hits, _ := c.eng.Results().Stats()
	key := p.Sweep + "#" + strconv.Itoa(p.Index)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !p.Done {
		c.open[key] = opStart{cpu: cpuSeconds(), hits: hits, span: c.tr.begin(p.Job, "run", c.parent, key)}
		return
	}
	s := c.open[key]
	delete(c.open, key)
	c.tr.end(s.span)
	lat := 1000 * (cpuSeconds() - s.cpu)
	c.ops = append(c.ops, lat)
	if hits == s.hits {
		c.misses = append(c.misses, lat)
	}
	if p.Err != nil {
		c.failed++
	}
}

// drive times one driver call as an engine span.
func (b *batch) drive(it *iteration, tr *tracer, name string, f func() error) bool {
	id := tr.begin(name, "engine", 0, "")
	b.clock.mu.Lock()
	b.clock.tr, b.clock.parent = tr, id
	b.clock.mu.Unlock()
	err := f()
	tr.end(id)
	if err != nil {
		it.attempted++
		it.failf("%s: %v", name, err)
		return false
	}
	return true
}

func (b *batch) run(ctx context.Context, tr *tracer) (*iteration, error) {
	it := &iteration{layer: layerValues{}}
	cpu0 := cpuSeconds()
	var prefetches uint64
	if b.fork {
		var m *harness.PolicyMatrixResult
		var st *harness.ForkStats
		if b.drive(it, tr, "harness.RunPolicyMatrixForkedContext", func() (err error) {
			m, st, err = harness.RunPolicyMatrixForkedContext(ctx, b.cfg)
			return err
		}) {
			for _, d := range b.policy.Compare(m) {
				it.failf("policy matrix: %s", d)
			}
			for _, r := range m.Rows {
				for _, n := range r.Prefetches {
					prefetches += uint64(n)
				}
			}
			it.layer["fork.groups"] = float64(st.Groups)
			it.layer["fork.forked_runs"] = float64(st.ForkedRuns)
			it.layer["fork.warmup_cycles_saved"] = float64(st.WarmupStraight - st.WarmupForked)
			it.exact = append(it.exact, exactCount{"fork.warmup_cycles_saved", st.WarmupStraight - st.WarmupForked})
		}
	} else {
		var o2, o3 *harness.Fig7Result
		var t1 *harness.Table1Result
		var f11 *harness.Fig11Result
		okO2 := b.drive(it, tr, "harness.RunFig7Context/O2", func() (err error) {
			o2, err = harness.RunFig7Context(ctx, b.cfg, compiler.O2)
			return err
		})
		okO3 := b.drive(it, tr, "harness.RunFig7Context/O3", func() (err error) {
			o3, err = harness.RunFig7Context(ctx, b.cfg, compiler.O3)
			return err
		})
		okT1 := b.drive(it, tr, "harness.RunTable1Context", func() (err error) {
			t1, err = harness.RunTable1Context(ctx, b.cfg)
			return err
		})
		okF11 := b.drive(it, tr, "harness.RunFig11Context", func() (err error) {
			f11, err = harness.RunFig11Context(ctx, b.cfg)
			return err
		})
		var divs []string
		if okO2 {
			divs = append(divs, b.golden.CompareFig7(o2)...)
			divs = append(divs, b.golden.CompareTable2(harness.Table2FromFig7(o2))...)
		}
		if okO3 {
			divs = append(divs, b.golden.CompareFig7(o3)...)
		}
		if okT1 {
			divs = append(divs, b.golden.CompareTable1(t1)...)
		}
		if okO2 && okF11 {
			// Fig. 11's plain runs are Fig. 7(a)'s base runs.
			for i, r := range f11.Rows {
				if i >= len(o2.Rows) || r.Name != o2.Rows[i].Name || r.Plain != o2.Rows[i].Base {
					divs = append(divs, fmt.Sprintf("fig11 row %d (%s): plain cycles %d differ from fig7a base", i, r.Name, r.Plain))
				}
			}
		}
		for _, d := range divs {
			it.failf("%s", d)
		}
		for _, f := range []*harness.Fig7Result{o2, o3} {
			if f != nil {
				for _, r := range f.Rows {
					prefetches += uint64(r.Stats.TotalPrefetches())
				}
			}
		}
	}

	b.clock.mu.Lock()
	it.ops, it.misses = b.clock.ops, b.clock.misses
	it.attempted += len(b.clock.ops)
	it.failed += b.clock.failed
	b.clock.ops, b.clock.misses, b.clock.failed = nil, nil, 0
	b.clock.tr, b.clock.parent = nil, 0
	b.clock.mu.Unlock()

	registryLayers(b.reg, it)
	it.simTime = time.Duration((cpuSeconds() - cpu0) * float64(time.Second))
	it.exact = append(it.exact, exactCount{"core.pf_inserted", prefetches})
	it.layer["core.pf_inserted"] = float64(prefetches)
	return it, nil
}

// probeBatch times single-layer calls on the instance's O2 builds:
// per-run data initialization, and a plain and an ADORE run of each
// kernel through harness.RunContext (host ns per simulated instruction
// with and without the controller). On policy-fork it also times a fork
// probe and its continuations for the first few kernels.
func probeBatch(ctx context.Context, inst instance, tr *tracer, out layerValues) error {
	b := inst.(*batch)
	var initMS, initKB []float64
	var baseNS, baseInsts, adoreNS, adoreInsts, samples float64
	for i, build := range b.builds {
		run := fmt.Sprintf("probe/%d", i)
		mem := memsys.NewMemory()
		id := tr.begin("program.Image.InitData", "setup", 0, run)
		t0 := time.Now()
		build.Image.InitData(mem)
		initMS = append(initMS, ms(time.Since(t0)))
		tr.end(id)
		initKB = append(initKB, float64(mem.Footprint())/1024)

		rc := harness.DefaultRunConfig()
		id = tr.begin("harness.RunContext/base", "run", 0, run)
		t0 = time.Now()
		res, err := harness.RunContext(ctx, build, rc)
		d := time.Since(t0)
		tr.end(id)
		if err != nil {
			return err
		}
		baseNS += float64(d)
		baseInsts += float64(res.CPU.Retired)

		rc.ADORE = true
		rc.Core = b.cfg.Core
		id = tr.begin("harness.RunContext/adore", "run", 0, run)
		t0 = time.Now()
		res, err = harness.RunContext(ctx, build, rc)
		d = time.Since(t0)
		tr.end(id)
		if err != nil {
			return err
		}
		adoreNS += float64(d)
		adoreInsts += float64(res.CPU.Retired)
		samples += float64(res.CPU.SampleCharges) / float64(b.cfg.Core.Sampling.HandlerCyclesPerSample)
	}
	out["setup.init_ms_per_run"] = mean(initMS)
	out["setup.init_kb"] = mean(initKB)
	out["cpu.base_ns_per_inst"] = baseNS / baseInsts
	out["core.ns_per_inst_overhead"] = adoreNS/adoreInsts - baseNS/baseInsts
	out["pmu.samples"] = samples
	out["compiler.build_ms"] = mean(tr.spanDurations("harness.BuildCache.Build"))
	if !b.fork {
		return nil
	}

	const forkProbes = 4
	var probeMS, resumeMS []float64
	for i, build := range b.builds[:forkProbes] {
		run := fmt.Sprintf("fork/%d", i)
		rc := harness.DefaultRunConfig()
		rc.ADORE = true
		rc.Core = b.cfg.Core
		rc.Core.Policy = "paper"
		id := tr.begin("harness.RunForkProbeImage", "fork", 0, run)
		t0 := time.Now()
		_, snap, err := harness.RunForkProbeImage(ctx, build.Image, rc, harness.ForkDivergence)
		probeMS = append(probeMS, ms(time.Since(t0)))
		tr.end(id)
		if err != nil {
			return err
		}
		if snap == nil {
			continue
		}
		for _, col := range harness.PolicyColumns() {
			if col == harness.PolicyBaseColumn || col == "paper" {
				continue
			}
			rc.Core.Policy, rc.Core.Selector = col, false
			if col == harness.PolicySelectorColumn {
				rc.Core.Policy, rc.Core.Selector = "", true
			}
			id := tr.begin("harness.RunForkedImage", "fork", 0, run+"/"+col)
			t0 := time.Now()
			_, err := harness.RunForkedImage(ctx, build.Image, rc, snap)
			resumeMS = append(resumeMS, ms(time.Since(t0)))
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	out["fork.probe_ms"] = mean(probeMS)
	out["fork.resume_ms_p50"] = median(resumeMS)
	return nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
