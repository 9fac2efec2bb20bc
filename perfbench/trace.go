package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// The traced run. Spans are recorded from the benchmark's own code around
// each call it makes into a layer's public function; they stay in memory
// and are written out when the run ends. Layers that are reachable only
// inside the simulator's run loop (cpu, memsys, pmu, core) get their host
// time from a CPU profile of the same traced phase, attributed by package.

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Run    string `json:"run,omitempty"` // run or request id shared by related spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans. A nil *tracer records nothing, which is how the
// measured runs keep tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, layer string, parent int, run string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer, Run: run, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// spanDurations returns the closed spans of one name, in ms.
func (t *tracer) spanDurations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Layer] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write stores the span list as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// traced is the --trace 1 run: an untraced phase and a traced phase of
// equal budget (the difference of their wall times is the tracing
// overhead), then the workload's single-layer probes. It reports every
// per-layer metric.
func traced(ctx context.Context, w workload, seed int64, budget time.Duration, outDir string) (*report, layerValues, error) {
	probeMS := hostProbe()
	gc0, pause0 := gcCycles(), gcPauseMS()
	plain, err := runPhase(ctx, w, seed, budget/2, 1, nil)
	if err != nil {
		return nil, nil, err
	}

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	tp, err := runPhase(ctx, w, seed, budget/2, 1, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}

	lv := layerValues{}
	for k, v := range tp.iters[len(tp.iters)-1].layer {
		lv[k] = v
	}
	iters := float64(len(tp.iters))
	for layer, d := range tr.selfTimes() {
		lv[layer+".self_ms"] = ms(d) / iters
	}
	if w.probe != nil {
		inst, err := w.setUp(ctx, seed, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("probe set-up: %w", err)
		}
		err = w.probe(ctx, inst, tr, lv)
		inst.close()
		if err != nil {
			return nil, nil, fmt.Errorf("probe: %w", err)
		}
	}

	shares, err := profileShares(prof.Bytes())
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, l := range profileLayers {
		lv[l+".self_pct"] = 100 * shares[l]
	}
	// The probes' own spans are single-layer calls with no children, and
	// the only spans of these two layers; their total over the probe is
	// not per iteration, so it has a name of its own.
	for _, layer := range []string{"setup", "fork"} {
		if d, ok := tr.selfTimes()[layer]; ok {
			lv[layer+".probe_self_ms"] = ms(d)
		}
	}
	lv["host.probe_ms"] = probeMS
	lv["host.gc_cycles"] = float64(gcCycles() - gc0)
	lv["host.gc_pause_ms"] = gcPauseMS() - pause0
	plainWall, tracedWall := medianWall(plain), medianWall(tp)
	lv["trace.overhead_s"] = tracedWall - plainWall
	lv["trace.overhead_pct"] = 100 * (tracedWall - plainWall) / plainWall
	lv["trace.spans"] = float64(len(tr.spans))

	rep := &report{}
	checkPhases(w.name, rep, plain, tp)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	if err := tr.write(base + ".spans.json"); err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: spans in %s.spans.json, CPU profile in %s.cpu.pprof\n", w.name, base, base)
	return rep, lv, nil
}

func medianWall(p *phase) float64 {
	var v []float64
	for _, it := range p.iters {
		v = append(v, it.wall.Seconds())
	}
	return median(v)
}

// profileLayers are the buckets host CPU time is attributed to.
var profileLayers = []string{"cpu", "memsys", "pmu", "core", "verify", "compiler", "setup",
	"harness", "serve", "telemetry", "net", "json", "runtime", "bench", "other"}

// layerOf maps a profiled function to its layer by package.
func layerOf(fn string) string {
	pkg := fn
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == "repro/internal/cpu" || pkg == "repro/internal/isa":
		return "cpu"
	case pkg == "repro/internal/memsys":
		return "memsys"
	case pkg == "repro/internal/pmu":
		return "pmu"
	case pkg == "repro/internal/core":
		return "core"
	case pkg == "repro/internal/verify" || pkg == "repro/internal/analysis":
		return "verify"
	case pkg == "repro/internal/compiler" || pkg == "repro/internal/asm" || pkg == "repro/internal/workloads":
		return "compiler"
	case pkg == "repro/internal/harness" || pkg == "repro/internal/program":
		return "harness"
	case pkg == "repro/internal/serve":
		return "serve"
	case pkg == "repro/internal/metrics" || pkg == "repro/internal/obs":
		return "telemetry"
	case strings.HasPrefix(pkg, "net") || strings.HasPrefix(pkg, "crypto") || pkg == "bufio" ||
		pkg == "internal/poll" || pkg == "syscall" || pkg == "io":
		return "net"
	case pkg == "encoding/json" || pkg == "reflect" || pkg == "strconv":
		return "json"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime") || strings.HasPrefix(pkg, "runtime/"):
		return "runtime"
	case pkg == "main":
		return "bench"
	}
	return "other"
}

// profileShares decodes a gzipped pprof CPU profile and returns each
// layer's share of the sampled CPU time. A sample counts for the layer of
// its leaf (innermost inlined) function, except that every sample under a
// data initializer counts as per-run set-up: most of that time is spent in
// the memory model's write path, which would otherwise hide it.
func profileShares(data []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		strs     []string
		funcName = map[uint64]uint64{}   // function id -> name string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples  []sample
	)
	err = pbFields(raw, func(field int, _ uint64, msg []byte) error {
		switch field {
		case 2: // Sample
			var sm sample
			err := pbFields(msg, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					sm.locs = appendVarints(sm.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 {
						sm.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			if err == nil && len(sm.locs) > 0 {
				samples = append(samples, sm)
			}
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(msg, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := pbFields(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fn uint64) string {
		if idx, ok := funcName[fn]; ok && idx < uint64(len(strs)) {
			return strs[idx]
		}
		return ""
	}
	byLayer := map[string]float64{}
	var total float64
	for _, sm := range samples {
		layer := ""
		for _, loc := range sm.locs {
			for _, fn := range locFuncs[loc] {
				n := name(fn)
				if layer == "" {
					layer = layerOf(n)
				}
				if strings.Contains(n, "initData") {
					layer = "setup"
				}
			}
		}
		byLayer[layer] += float64(sm.value)
		total += float64(sm.value)
	}
	if total == 0 {
		return nil, errors.New("profile has no samples")
	}
	for k := range byLayer {
		byLayer[k] /= total
	}
	return byLayer, nil
}

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n == 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, msg); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one unpacked
// value v, or every value of a packed run b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
