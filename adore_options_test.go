package adore_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/pmu"

	adore "repro"
)

// scaledConfig returns ADORE parameters sized for the tiny test workloads,
// mirroring the scaled configuration the harness tests use.
func scaledConfig() adore.Config {
	cfg := core.DefaultConfig()
	cfg.Sampling = pmu.Config{SampleInterval: 2000, SSBSize: 64, DearLatencyMin: 8, HandlerCyclesPerSample: 30}
	cfg.W = 8
	cfg.PollInterval = 20_000
	cfg.StableWindows = 3
	return cfg
}

// TestRunOptionTransforms pins the facade's option helpers: what each one
// sets, what it must leave alone, and how they compose.
func TestRunOptionTransforms(t *testing.T) {
	custom := scaledConfig()
	tests := []struct {
		name  string
		build func() adore.RunConfig
		check func(t *testing.T, rc adore.RunConfig)
	}{
		{
			name:  "defaults",
			build: adore.RunOptions,
			check: func(t *testing.T, rc adore.RunConfig) {
				if rc.ADORE || rc.Observe || rc.CaptureDear || rc.RecordSeries || rc.Profile != 0 {
					t.Errorf("defaults enable features: ADORE=%v Observe=%v CaptureDear=%v RecordSeries=%v Profile=%d",
						rc.ADORE, rc.Observe, rc.CaptureDear, rc.RecordSeries, rc.Profile)
				}
				if rc.MaxInsts == 0 {
					t.Error("no default instruction safety stop")
				}
				if rc.Hierarchy != memsys.DefaultConfig() {
					t.Error("default hierarchy is not memsys.DefaultConfig")
				}
			},
		},
		{
			name:  "with-adore",
			build: func() adore.RunConfig { return adore.WithADORE(adore.RunOptions()) },
			check: func(t *testing.T, rc adore.RunConfig) {
				if !rc.ADORE {
					t.Error("ADORE not set")
				}
				if rc.Core.W == 0 {
					t.Error("no default optimizer config filled in")
				}
				if !rc.Core.Verify {
					t.Error("patch-time verification must default on")
				}
				if rc.Observe {
					t.Error("WithADORE flipped Observe")
				}
			},
		},
		{
			name: "with-adore-preserves-custom-core",
			build: func() adore.RunConfig {
				rc := adore.RunOptions()
				rc.Core = custom
				return adore.WithADORE(rc)
			},
			check: func(t *testing.T, rc adore.RunConfig) {
				if rc.Core.W != custom.W || rc.Core.PollInterval != custom.PollInterval {
					t.Errorf("WithADORE replaced a caller-set Core: W=%d PollInterval=%d",
						rc.Core.W, rc.Core.PollInterval)
				}
			},
		},
		{
			name:  "with-observe",
			build: func() adore.RunConfig { return adore.WithObserve(adore.RunOptions()) },
			check: func(t *testing.T, rc adore.RunConfig) {
				if !rc.Observe {
					t.Error("Observe not set")
				}
				if rc.ADORE {
					t.Error("WithObserve flipped ADORE")
				}
			},
		},
		{
			name: "composed",
			build: func() adore.RunConfig {
				return adore.WithObserve(adore.WithADORE(adore.RunOptions()))
			},
			check: func(t *testing.T, rc adore.RunConfig) {
				if !rc.ADORE || !rc.Observe {
					t.Errorf("composition lost a flag: ADORE=%v Observe=%v", rc.ADORE, rc.Observe)
				}
			},
		},
		{
			name:  "with-policy",
			build: func() adore.RunConfig { return adore.WithPolicy(adore.RunOptions(), "nextline") },
			check: func(t *testing.T, rc adore.RunConfig) {
				if !rc.ADORE {
					t.Error("WithPolicy did not imply ADORE")
				}
				if rc.Core.Policy != "nextline" || rc.Core.Selector {
					t.Errorf("policy plumbing: Policy=%q Selector=%v", rc.Core.Policy, rc.Core.Selector)
				}
				if rc.Core.PolicyKey() != "nextline" {
					t.Errorf("policy key = %q", rc.Core.PolicyKey())
				}
			},
		},
		{
			name:  "with-selector",
			build: func() adore.RunConfig { return adore.WithSelector(adore.RunOptions()) },
			check: func(t *testing.T, rc adore.RunConfig) {
				if !rc.ADORE || !rc.Core.Selector {
					t.Errorf("selector plumbing: ADORE=%v Selector=%v", rc.ADORE, rc.Core.Selector)
				}
				if rc.Core.PolicyKey() != "selector" {
					t.Errorf("policy key = %q", rc.Core.PolicyKey())
				}
			},
		},
		{
			name: "selector-overrides-policy",
			build: func() adore.RunConfig {
				return adore.WithSelector(adore.WithPolicy(adore.RunOptions(), "adaptive"))
			},
			check: func(t *testing.T, rc adore.RunConfig) {
				if rc.Core.Policy != "" || !rc.Core.Selector {
					t.Errorf("WithSelector did not override fixed policy: Policy=%q Selector=%v",
						rc.Core.Policy, rc.Core.Selector)
				}
			},
		},
		{
			name: "policy-overrides-selector",
			build: func() adore.RunConfig {
				return adore.WithPolicy(adore.WithSelector(adore.RunOptions()), "throttle")
			},
			check: func(t *testing.T, rc adore.RunConfig) {
				if rc.Core.Policy != "throttle" || rc.Core.Selector {
					t.Errorf("WithPolicy did not override selector: Policy=%q Selector=%v",
						rc.Core.Policy, rc.Core.Selector)
				}
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) { tc.check(t, tc.build()) })
	}
}

// TestFacadeConfigPlumbing drives the documented quick-start path at a
// small scale and checks each configuration's outputs land where the
// facade says they do: observability artifacts only when asked for, timing
// untouched by the observe and verify toggles, deterministic plain runs.
func TestFacadeConfigPlumbing(t *testing.T) {
	bench, err := adore.Benchmark("mcf", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	build, err := adore.Compile(bench.Kernel, adore.CompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fs := adore.VerifyImage(build, adore.VerifyOptions{}); len(fs) != 0 {
		t.Fatalf("compiled image has verifier findings: %v", fs)
	}

	base, err := adore.Run(build, adore.RunOptions())
	if err != nil {
		t.Fatal(err)
	}
	if base.Obs != nil || base.CPIStack != nil {
		t.Error("plain run produced observability output")
	}
	again, err := adore.Run(build, adore.RunOptions())
	if err != nil {
		t.Fatal(err)
	}
	if base.CPU.Cycles != again.CPU.Cycles {
		t.Errorf("plain run not deterministic: %d vs %d cycles", base.CPU.Cycles, again.CPU.Cycles)
	}

	rc := adore.RunOptions()
	rc.Core = scaledConfig()
	opt, err := adore.Run(build, adore.WithADORE(rc))
	if err != nil {
		t.Fatal(err)
	}
	if opt.Core == nil {
		t.Fatal("ADORE run returned no optimizer stats")
	}

	obsRun, err := adore.Run(build, adore.WithObserve(adore.WithADORE(rc)))
	if err != nil {
		t.Fatal(err)
	}
	if obsRun.CPIStack == nil {
		t.Error("observed run has no CPI stack")
	}
	if obsRun.Obs == nil {
		t.Error("observed ADORE run has no event capture")
	}
	if obsRun.CPU.Cycles != opt.CPU.Cycles {
		t.Errorf("observability changed timing: %d vs %d cycles", obsRun.CPU.Cycles, opt.CPU.Cycles)
	}

	// The verify toggle is plumbed through: with patch-time verification
	// off the run still completes and patches identically.
	off := rc
	off.Core.Verify = false
	unchecked, err := adore.Run(build, adore.WithADORE(off))
	if err != nil {
		t.Fatal(err)
	}
	if unchecked.CPU.Cycles != opt.CPU.Cycles {
		t.Errorf("verify toggle changed simulated timing: %d vs %d cycles",
			unchecked.CPU.Cycles, opt.CPU.Cycles)
	}

	// Policy plumbing: the explicit "paper" name is the same machine as the
	// default, every registered policy runs, and an unknown name errors.
	paper, err := adore.Run(build, adore.WithPolicy(rc, "paper"))
	if err != nil {
		t.Fatal(err)
	}
	if paper.CPU.Cycles != opt.CPU.Cycles {
		t.Errorf("explicit paper policy diverges from default: %d vs %d cycles",
			paper.CPU.Cycles, opt.CPU.Cycles)
	}
	for _, pol := range adore.Policies() {
		if _, err := adore.Run(build, adore.WithPolicy(rc, pol)); err != nil {
			t.Errorf("policy %q: %v", pol, err)
		}
	}
	if _, err := adore.Run(build, adore.WithSelector(rc)); err != nil {
		t.Errorf("selector run: %v", err)
	}
	if _, err := adore.Run(build, adore.WithPolicy(rc, "bogus")); err == nil {
		t.Error("unknown policy name did not error")
	}
}
