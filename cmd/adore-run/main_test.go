package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/program"
)

// The workload every test runs: small, and large enough that the default
// optimizer patches a loop.
var small = []string{"-bench", "mcf", "-scale", "0.02"}

func runArgs(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errb bytes.Buffer
	err = run(context.Background(), append(append([]string{}, small...), args...), &out, &errb)
	return out.String(), errb.String(), err
}

// TestViews drives the default summary and every view, checking each
// prints its own lines and not the summary's.
func TestViews(t *testing.T) {
	tests := []struct {
		args       []string
		want, omit []string
	}{
		{nil, []string{"mcf (SPECint2000, O2):", "  cycles:"}, []string{"ADORE", "window series"}},
		{[]string{"-adore"}, []string{"O2+adore):", "ADORE (policy paper): 1 phases optimized"}, nil},
		{[]string{"-selector"}, []string{"ADORE (policy selector)", "selector: 1 decisions"}, nil},
		{[]string{"-series"}, []string{"mcf (SPECint2000, O2):", "window series (cycle, CPI, DEAR/1000 inst):"}, []string{"ADORE"}},
		{[]string{"-decisions"}, []string{"] optimize trace @", "\nrun: ", "verifier: ", "policy: paper\n", "patch @"}, []string{"  cycles:", "trace pool"}},
		{[]string{"-pool"}, []string{"] optimize trace @", "\ntrace pool (12 bundles):\n"}, []string{"  cycles:"}},
		{[]string{"-misses"}, []string{"miss profile of mcf: ", "prefetchable", "arc-scan"}, []string{"  cycles:"}},
		{[]string{"-timeline"}, []string{"timeline of mcf: ", "lfetch issued/useful/late/unused"}, []string{"  cycles:"}},
		{[]string{"-annotate"}, []string{"# mcf — simulated-execution profile, annotated", "# sample interval: 4093 cycles"}, []string{"  cycles:"}},
	}
	for _, tc := range tests {
		t.Run(strings.Join(append([]string{"view"}, tc.args...), ""), func(t *testing.T) {
			out, _, err := runArgs(t, tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("output lacks %q:\n%s", w, out)
				}
			}
			for _, w := range tc.omit {
				if strings.Contains(out, w) {
					t.Errorf("output has %q:\n%s", w, out)
				}
			}
		})
	}
}

// TestFileOutputs writes every output file in one run and checks each is
// what its reader expects.
func TestFileOutputs(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	out, errs, err := runArgs(t, "-decisions", "-trace", path("t.json"), "-events", path("t.jsonl"),
		"-profile", path("p.pb.gz"), "-save", path("img.bin"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"cpi stack: busy ", "prefetch: ", "events: "} {
		if !strings.Contains(out, w) {
			t.Errorf("observed run's output lacks %q:\n%s", w, out)
		}
	}
	for _, name := range []string{"img.bin", "t.json", "t.jsonl", "p.pb.gz"} {
		if !strings.Contains(errs, "wrote "+path(name)+"\n") {
			t.Errorf("stderr does not note %s:\n%s", name, errs)
		}
	}

	trace, err := os.ReadFile(path("t.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := obs.ValidateChromeTrace(trace); err != nil || n == 0 {
		t.Errorf("trace: %d events, %v", n, err)
	}
	events, err := os.ReadFile(path("t.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(events, []byte("\n")); lines < 2 {
		t.Errorf("events file has %d lines", lines)
	}
	prof, err := os.ReadFile(path("p.pb.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) < 2 || prof[0] != 0x1f || prof[1] != 0x8b {
		t.Errorf("profile is not gzip data (%d bytes)", len(prof))
	}
	f, err := os.Open(path("img.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if img, err := program.DecodeImage(f); err != nil || img.BundleCount == 0 {
		t.Errorf("saved image does not decode: %v", err)
	}
}

// TestFlagImplications pins which flags attach the optimizer, observe the
// run, sample it or profile it.
func TestFlagImplications(t *testing.T) {
	for _, args := range [][]string{{"-policy", "nextline"}, {"-selector"}, {"-decisions"}, {"-pool"}, {"-trace", "t.json"}, {"-events", "t.jsonl"}, {"-timeline"}} {
		o, err := parseFlags(args, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		if rc := o.runConfig(); !o.adore || !rc.ADORE || rc.Core.DisableInsertion {
			t.Errorf("%v does not imply an optimizing ADORE run", args)
		}
	}
	o, _ := parseFlags([]string{"-pool"}, &bytes.Buffer{})
	if !o.decisions {
		t.Error("-pool does not imply -decisions")
	}

	tests := []struct {
		args  []string
		check func(harness.RunConfig) bool
	}{
		{nil, func(rc harness.RunConfig) bool {
			return !rc.ADORE && !rc.Observe && !rc.RecordSeries && !rc.CaptureDear && rc.Profile == 0
		}},
		// Sampling without -adore is the monitor run.
		{[]string{"-series"}, func(rc harness.RunConfig) bool {
			return rc.ADORE && rc.Core.DisableInsertion && rc.RecordSeries && !rc.CaptureDear
		}},
		{[]string{"-misses"}, func(rc harness.RunConfig) bool {
			return rc.ADORE && rc.Core.DisableInsertion && rc.CaptureDear && !rc.RecordSeries
		}},
		{[]string{"-adore", "-series"}, func(rc harness.RunConfig) bool {
			return rc.ADORE && !rc.Core.DisableInsertion && rc.RecordSeries
		}},
		{[]string{"-timeline"}, func(rc harness.RunConfig) bool { return rc.Observe }},
		{[]string{"-trace", "t.json"}, func(rc harness.RunConfig) bool { return rc.Observe }},
		{[]string{"-annotate"}, func(rc harness.RunConfig) bool { return !rc.ADORE && rc.Profile == profileInterval }},
		{[]string{"-profile", "p.pb.gz"}, func(rc harness.RunConfig) bool { return rc.Profile == profileInterval && !rc.Observe }},
		{[]string{"-policy", "throttle"}, func(rc harness.RunConfig) bool {
			return rc.Core.PolicyKey() == "throttle" && !rc.Observe
		}},
	}
	for _, tc := range tests {
		o, err := parseFlags(tc.args, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		if rc := o.runConfig(); !tc.check(rc) {
			t.Errorf("%v: run config %+v", tc.args, rc)
		}
	}
}

// TestUsageErrors: two views at once, or an unknown flag, is a usage
// error (exit 2) that runs nothing.
func TestUsageErrors(t *testing.T) {
	views := []string{"-decisions", "-misses", "-timeline", "-annotate"}
	var bad [][]string
	for i := range views {
		for j := i + 1; j < len(views); j++ {
			bad = append(bad, []string{views[i], views[j]})
		}
	}
	bad = append(bad, []string{"-pool", "-misses"}, []string{"-nosuchflag"})
	for _, args := range bad {
		out, errs, err := runArgs(t, args...)
		if !errors.Is(err, errUsage) {
			t.Errorf("%v: err %v, want a usage error", args, err)
		}
		if out != "" || errs == "" {
			t.Errorf("%v: stdout %q, stderr %q", args, out, errs)
		}
	}
}

// TestMissRowsTieOrder: loops with equal miss latency print by ascending
// loop ID, whatever order their events arrive in.
func TestMissRowsTieOrder(t *testing.T) {
	img := &program.Image{Loops: []program.LoopInfo{
		{ID: 7, Name: "seven", BodyStart: 0x100, BodyEnd: 0x200},
		{ID: 3, Name: "three", BodyStart: 0x200, BodyEnd: 0x300},
		{ID: 5, Name: "five", BodyStart: 0x300, BodyEnd: 0x400, Prefetchable: true},
	}}
	events := []harness.DearEvent{
		{PC: 0x110, Latency: 40}, // loop 7 first, so a stable sort on latency alone keeps it ahead of loop 3
		{PC: 0x210, Latency: 30},
		{PC: 0x310, Latency: 100},
		{PC: 0x220, Latency: 10},
		{PC: 0x500, Latency: 999}, // outside every loop
	}
	rows, outside := missRows(events, img)
	if outside != 1 {
		t.Errorf("outside = %d, want 1", outside)
	}
	var got []int
	for _, r := range rows {
		got = append(got, r.id)
	}
	if want := []int{5, 3, 7}; !slices.Equal(got, want) {
		t.Errorf("row order %v, want %v", got, want)
	}
	if rows[1].events != 2 || rows[1].lat != 40 || !rows[0].pfable {
		t.Errorf("rows %+v", rows)
	}
}
