package core

import (
	"fmt"
	"sort"

	"repro/internal/memsys"
)

// This file puts the controller's prefetch decision (§3: loop trace +
// delinquent loads → injected code) behind the PrefetchPolicy interface,
// so the paper's optimizer becomes one policy among several rather than
// the only possible behaviour. Phase detection (§2.3) and trace selection
// (§2.4) have one implementation each and are called directly. The
// default policy is the paper's own optimizer, extracted verbatim: a run
// with Config.Policy unset is bit-identical to the pre-refactor
// controller.
//
// Prefetch policies are named and registered (RegisterPrefetchPolicy) so
// the config layer, CLIs and the fuzzer can select them by string, and the
// runtime Selector (selector.go) can enumerate them.

// PrefetchContext carries the runtime signals a prefetch policy may
// consult, gathered read-only at decision time. Only PhaseCPI influences
// the paper policy; the alternatives read the prefetch-usefulness and
// bus-occupancy counters (the PR-3 PfLate/PfUnused instrumentation).
type PrefetchContext struct {
	// PhaseCPI is the stable phase's CPI — the paper's input to the
	// prefetch-distance computation.
	PhaseCPI float64
	// Cycle is the simulated clock at decision time (0 when unattached).
	Cycle uint64
	// Prefetch is the cumulative lfetch usefulness accounting.
	Prefetch memsys.PrefetchStats
	// BusWaitCycles / MemAccesses summarize memory-bus pressure.
	BusWaitCycles uint64
	MemAccesses   uint64
}

// PrefetchPolicy decides what prefetch code to inject into a loop trace.
// Implementations mutate t in place (like the §3 optimizer) and must keep
// every inserted write inside the reserved registers r27-r30/p6 — the
// conformance suite (policy_test.go) enforces this for every registered
// policy.
type PrefetchPolicy interface {
	PolicyName() string
	Optimize(t *Trace, loads []DelinquentLoad, ctx PrefetchContext) OptimizeResult
}

// PolicyPaper is the name of the default prefetch policy: the paper's
// pipeline, unchanged.
const PolicyPaper = "paper"

// paperPrefetch adapts the §3 Optimizer: pattern classification by
// dependence slicing, distance from avg latency / body cycles.
type paperPrefetch struct{ opt *Optimizer }

func (p *paperPrefetch) PolicyName() string { return PolicyPaper }

func (p *paperPrefetch) Optimize(t *Trace, loads []DelinquentLoad, ctx PrefetchContext) OptimizeResult {
	return p.opt.Optimize(t, loads, ctx.PhaseCPI)
}

// ---- registry ----

var prefetchPolicyFactories = map[string]func(Config) PrefetchPolicy{}

// RegisterPrefetchPolicy makes a prefetch policy selectable by name
// through Config.Policy. Registration happens at init time; duplicate
// names panic (a programming error, not a runtime condition).
func RegisterPrefetchPolicy(name string, factory func(Config) PrefetchPolicy) {
	if _, dup := prefetchPolicyFactories[name]; dup {
		panic("core: duplicate prefetch policy " + name)
	}
	prefetchPolicyFactories[name] = factory
}

// PrefetchPolicyNames lists the registered prefetch policies, sorted, so
// every layer (CLIs, fuzzer, obs metadata) enumerates them identically.
func PrefetchPolicyNames() []string {
	names := make([]string, 0, len(prefetchPolicyFactories))
	for n := range prefetchPolicyFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewPrefetchPolicy builds the named policy ("" means PolicyPaper).
func NewPrefetchPolicy(name string, cfg Config) (PrefetchPolicy, error) {
	if name == "" {
		name = PolicyPaper
	}
	f, ok := prefetchPolicyFactories[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown prefetch policy %q (have %v)", name, PrefetchPolicyNames())
	}
	return f(cfg), nil
}

// policyIndex maps a policy name to its position in the sorted registry —
// the encoding obs events use (Event carries integers; obs.Meta.Policies
// carries the name table).
func policyIndex(name string) uint64 {
	for i, n := range PrefetchPolicyNames() {
		if n == name {
			return uint64(i)
		}
	}
	return ^uint64(0)
}

func init() {
	RegisterPrefetchPolicy(PolicyPaper, func(cfg Config) PrefetchPolicy {
		return &paperPrefetch{opt: NewOptimizer(cfg)}
	})
}
