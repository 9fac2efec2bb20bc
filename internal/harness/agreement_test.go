package harness

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/workloads"
)

// staticLoops holds the straightened simple-loop bodies of one compiled
// image, indexed for lookup by segment slot position.
type staticLoops struct {
	seg    *program.Segment
	cfg    *analysis.CFG
	bodies []*analysis.LoopBody
}

func analyzeLoops(seg *program.Segment) *staticLoops {
	c := analysis.Build(analysis.SegmentInput(seg))
	d := c.Dominators()
	s := &staticLoops{seg: seg, cfg: c}
	for _, l := range c.NaturalLoops(d) {
		if body, ok := c.LoopBody(l); ok {
			s.bodies = append(s.bodies, body)
		}
	}
	return s
}

// bodyAt returns the loop body containing segment slot position pos and
// the body index of that position, or nil.
func (s *staticLoops) bodyAt(pos int) (*analysis.LoopBody, int) {
	for _, b := range s.bodies {
		if i := b.IndexOfPos(pos); i >= 0 {
			return b, i
		}
	}
	return nil, -1
}

// flattenBundles lists the non-nop instructions of a bundle sequence in
// execution order — the shape both the runtime slicer and the static
// classifier flatten to.
func flattenBundles(bs []isa.Bundle) []isa.Inst {
	var out []isa.Inst
	for _, b := range bs {
		for _, in := range b.Slots {
			if in.Op != isa.OpNop {
				out = append(out, in)
			}
		}
	}
	return out
}

// sameInsts reports whether the flattened trace equals the static loop
// body instruction for instruction — the precondition under which slicer
// and classifier analyze identical code.
func sameInsts(flat []isa.Inst, body *analysis.LoopBody) bool {
	if len(flat) != body.Len() {
		return false
	}
	for i := range flat {
		in, _ := body.At(i)
		if in != flat[i] {
			return false
		}
	}
	return true
}

// verdictsAgree maps the runtime slicer's Pattern onto the static
// classifier's Verdict and checks the pattern-specific details match.
func verdictsAgree(an core.Analysis, lc analysis.LoadClass) bool {
	switch an.Pattern {
	case core.PatternDirect:
		return lc.Verdict == analysis.VerdictStrided && lc.Stride == an.Stride
	case core.PatternIndirect:
		return lc.Verdict == analysis.VerdictIndirect &&
			lc.FeederStride == an.FeederStride && lc.FeederAddrReg == an.FeederAddrReg
	case core.PatternPointer:
		return lc.Verdict == analysis.VerdictPointer && lc.InductionReg == an.InductionReg
	default:
		return lc.Verdict == analysis.VerdictUnknown
	}
}

// TestStaticSlicerAgreement is the tentpole's differential check: across
// every paper workload at O2 and O3, each loop the runtime optimizer
// analyzes is re-derived statically — pristine trace bundles from the
// image, natural loop from the CFG — and the runtime slicer's pattern for
// every delinquent load must equal the static classifier's verdict.
// Traces that do not correspond to a simple static loop (multi-path, or
// truncated by the selector) are skipped and counted; a disagreement on
// any compared load fails.
func TestStaticSlicerAgreement(t *testing.T) {
	const scale = 0.02
	var compared, skipped, events int

	for _, bench := range workloads.All(scale) {
		for _, level := range []compiler.OptLevel{compiler.O2, compiler.O3} {
			opts := compiler.DefaultOptions()
			opts.Level = level
			build, err := compiler.Build(bench.Kernel, opts)
			if err != nil {
				t.Fatalf("%s/%s: build: %v", bench.Name, level, err)
			}
			img := build.Image
			loops := analyzeLoops(img.Code)
			name := fmt.Sprintf("%s/%s", bench.Name, level)

			cfg := DefaultRunConfig()
			cfg.ADORE = true
			cfg.Core = fastCore()
			cfg.OnOptimize = func(_ uint64, tr *core.Trace, loads []core.DelinquentLoad, res core.OptimizeResult) {
				events++
				if !tr.IsLoop {
					return
				}
				// The hook sees the trace after mutation; rebuild the
				// pristine trace from the image bundles at the original
				// addresses (injected code never lives at an original
				// address it didn't start from).
				prist := core.Trace{Start: tr.Start, IsLoop: true}
				for _, a := range tr.Orig {
					if a == 0 {
						continue
					}
					bi := int((a - img.Code.Base) / isa.BundleBytes)
					if bi < 0 || bi >= len(img.Code.Bundles) {
						skipped++
						return
					}
					prist.Bundles = append(prist.Bundles, img.Code.Bundles[bi])
					prist.Orig = append(prist.Orig, a)
				}
				if len(prist.Bundles) == 0 || prist.Orig[0] != prist.Start {
					skipped++
					return
				}
				prist.BackEdge = len(prist.Bundles) - 1
				flat := flattenBundles(prist.Bundles)

				for _, dl := range loads {
					bundleAddr := dl.PC &^ uint64(isa.BundleBytes-1)
					slot := int(dl.PC & uint64(isa.BundleBytes-1))
					segPos := int((bundleAddr-img.Code.Base)/isa.BundleBytes)*analysis.SlotsPerBundle + slot
					body, idx := loops.bodyAt(segPos)
					if body == nil || !sameInsts(flat, body) {
						skipped++
						continue
					}
					ti := -1
					for i, a := range prist.Orig {
						if a == bundleAddr {
							ti = i
						}
					}
					an, ok := core.ClassifyLoad(&prist, ti, slot)
					if !ok {
						skipped++
						continue
					}
					lc := body.Classify(idx)
					compared++
					if !verdictsAgree(an, lc) {
						t.Errorf("%s: load @%#x: runtime slicer says %v (stride %d), static classifier says %v (stride %d)",
							name, dl.PC, an.Pattern, an.Stride, lc.Verdict, lc.Stride)
					}
				}
			}
			if _, err := RunContext(context.Background(), build, cfg); err != nil {
				t.Fatalf("%s: run: %v", name, err)
			}
		}
	}

	t.Logf("agreement: %d optimize events, %d loads compared, %d skipped", events, compared, skipped)
	if compared < 15 {
		t.Errorf("only %d loads compared (events %d, skipped %d); differential is near-vacuous",
			compared, events, skipped)
	}
}
