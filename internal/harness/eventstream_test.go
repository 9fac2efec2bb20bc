package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"repro/internal/obs"
)

var updateEventGolden = flag.Bool("update-event-golden", false,
	"regenerate testdata/golden/event_stream.json instead of comparing against it")

const eventGoldenPath = "testdata/golden/event_stream.json"

// eventGoldenRun is one observed ADORE run pinned by the event-stream
// golden: its per-kind event counts (the readable part of a diff) and the
// sha256 of its JSONL export (every field of every event, in order).
type eventGoldenRun struct {
	Name   string
	Counts map[string]int
	SHA256 string
}

// eventStreamRuns are the pinned runs: mcf under the default paper policy,
// and vpr under the runtime selector with one delinquent load per trace —
// vpr's top load sits behind an fp-int conversion the paper's slicer cannot
// classify, so the selector's pick injects nothing and it falls back to
// next-line, which makes both PolicySelected and PolicySwitched fire.
func eventStreamRuns(t *testing.T) []eventGoldenRun {
	t.Helper()
	type spec struct {
		name, bench string
		mut         func(*RunConfig)
	}
	specs := []spec{
		{"mcf/paper", "mcf", func(*RunConfig) {}},
		{"vpr/selector", "vpr", func(rc *RunConfig) {
			rc.Core.Selector = true
			rc.Core.MaxDelinquentLoads = 1
		}},
	}
	var out []eventGoldenRun
	for _, s := range specs {
		rc := DefaultRunConfig()
		rc.ADORE = true
		rc.Observe = true
		s.mut(&rc)
		res, err := RunContext(context.Background(), obsBuild(t, s.bench, 0.1), rc)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, res.Obs); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		r := eventGoldenRun{Name: s.name, Counts: map[string]int{}, SHA256: hex.EncodeToString(sum[:])}
		for _, e := range res.Obs.Events {
			r.Counts[e.Kind.String()]++
		}
		out = append(out, r)
	}
	return out
}

// TestEventStreamGolden pins the controller's observed event stream — every
// field of every event — for two runs against a checked-in golden, so a
// change to how the controller records its decisions cannot silently move
// an event. Run with -update-event-golden after an intentional change to
// the stream (and say why in the commit message).
func TestEventStreamGolden(t *testing.T) {
	got := eventStreamRuns(t)
	sel := got[1].Counts
	if sel[obs.KindPolicySelected.String()] == 0 || sel[obs.KindPolicySwitched.String()] == 0 {
		t.Fatalf("selector run recorded %d PolicySelected and %d PolicySwitched events; both must occur",
			sel[obs.KindPolicySelected.String()], sel[obs.KindPolicySwitched.String()])
	}

	if *updateEventGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(eventGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("event-stream golden regenerated at %s", eventGoldenPath)
		return
	}

	data, err := os.ReadFile(eventGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []eventGoldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", eventGoldenPath, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("event stream moved:\n got    %+v\n golden %+v", got[i], want[i])
		}
	}
}
