package harness

import (
	"context"
	"testing"
)

// TestADOREVerifiesTracesEndToEnd checks that runtime verification
// (Config.Verify, on by default) actually runs in a full ADORE session:
// every installed trace was checked first, and none of the optimizer's
// real output is rejected.
func TestADOREVerifiesTracesEndToEnd(t *testing.T) {
	b := buildO2(t, streamKernel(1<<17, 12))
	cfg := DefaultRunConfig()
	cfg.ADORE = true
	cfg.Core = fastCore()
	if !cfg.Core.Verify {
		t.Fatal("Verify not on by default")
	}
	r, err := RunContext(context.Background(), b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Core.TracesPatched == 0 {
		t.Fatalf("no traces patched: %+v", *r.Core)
	}
	if r.Core.TracesVerified < r.Core.TracesPatched {
		t.Fatalf("patched %d traces but verified only %d",
			r.Core.TracesPatched, r.Core.TracesVerified)
	}
	if r.Core.VerifyRejects != 0 {
		t.Fatalf("verifier rejected %d of the optimizer's own traces", r.Core.VerifyRejects)
	}
}
