// Package pmu models the Itanium 2 performance-monitoring unit as used by
// ADORE: accumulative counters (CPU cycles, retired instructions, data-cache
// load misses), the Branch Trace Buffer (the 4 most recent branch outcomes
// with source/target addresses), the Data Event Address Registers (most
// recent data-cache load miss at or above a latency threshold), and
// cycle-interval sampling into a kernel-side System Sample Buffer whose
// overflow invokes a registered handler — the equivalent of the perfmon
// buffer-overflow signal that ADORE's signal handler consumes.
package pmu

// BranchRec is one Branch Trace Buffer entry.
type BranchRec struct {
	Src   uint64 // PC of the branch instruction
	Dst   uint64 // target (meaningful when Taken)
	Taken bool
}

// DearRec is the Data Event Address Register contents: the most recent
// data-cache load miss with latency >= the configured threshold.
type DearRec struct {
	PC      uint64 // PC of the missing load
	Addr    uint64 // missed data address
	Latency uint32 // observed load latency in cycles
	Valid   bool
}

// BTBEntries is the depth of the branch trace buffer ("recording the most
// recent 4 branch outcomes").
const BTBEntries = 4

// Sample is the n-tuple ADORE receives per PMU sample:
// <sample index, pc, CPU cycles, D-cache miss count, retired instruction
// count, BTB values, DEAR values>. Counter fields are accumulative, as on
// hardware; consumers difference adjacent samples.
type Sample struct {
	Index   uint64
	PC      uint64
	Cycles  uint64
	Retired uint64
	DMiss   uint64
	BTB     [BTBEntries]BranchRec
	NBTB    int
	DEAR    DearRec
}

// Config programs the sampling hardware.
type Config struct {
	// SampleInterval is R: one sample every R CPU cycles. The paper uses
	// 100k-300k cycles on wall-clock scale runs; the simulation default
	// is scaled down with the run length (see internal/core.Config).
	SampleInterval uint64
	// SSBSize is N, the kernel sample buffer capacity; the buffer
	// overflow signal fires every N samples.
	SSBSize int
	// DearLatencyMin is the DEAR qualification threshold in cycles.
	// ADORE programs 8: "this much latency implies L2 or L3 cache
	// misses".
	DearLatencyMin uint32
	// HandlerCyclesPerSample approximates the signal-handler cost of
	// copying one sample from the SSB to the user event buffer. It is
	// charged to the monitored thread at every overflow, which is the
	// dominant ADORE overhead measured by Fig. 11.
	HandlerCyclesPerSample uint64

	// IntervalJitter randomizes each sampling interval by up to ±half
	// this many cycles (perfmon's sampling-period randomization).
	// Without it a deterministic loop phase-locks with the sampler and
	// the DEAR only ever shows one of the loop's delinquent loads.
	// Zero selects the default of SampleInterval/4.
	IntervalJitter uint64
}

// DefaultConfig returns sampling parameters scaled for simulated runs of
// tens of millions of instructions.
func DefaultConfig() Config {
	return Config{
		SampleInterval:         2000,
		SSBSize:                256,
		DearLatencyMin:         8,
		HandlerCyclesPerSample: 30,
	}
}

// OverflowHandler receives the full SSB when it fills. The slice is only
// valid for the duration of the call; handlers copy what they keep. The
// returned value is ignored; overhead is charged via HandlerCyclesPerSample.
type OverflowHandler func(samples []Sample)

// PMU is the monitoring unit attached to one simulated CPU.
type PMU struct {
	cfg     Config
	enabled bool

	// Accumulative architectural counters, updated by the CPU. The CPU
	// folds Retired in batches, current at every sample, hook boundary
	// and run exit (cpu.CPU.foldRetired).
	Cycles  uint64
	Retired uint64
	DMiss   uint64

	btb    [BTBEntries]BranchRec
	btbLen int
	btbPos int
	dear   DearRec

	nextSampleAt uint64
	sampleIndex  uint64
	ssb          []Sample
	handler      OverflowHandler
	rng          uint64 // deterministic jitter state

	// OverheadCycles accumulates the cycles charged for overflow
	// handling; the CPU adds them to the monitored thread's time.
	OverheadCycles uint64
	TotalSamples   uint64
	Overflows      uint64
	// SamplesDropped counts samples discarded because the SSB overflowed
	// with no handler attached — the kernel buffer wrapped before any
	// consumer read it. Surfaced through core.Stats so observability runs
	// can tell "no events" from "events lost".
	SamplesDropped uint64
}

// New returns a PMU with the given configuration, disabled until Start.
func New(cfg Config) *PMU {
	if cfg.SampleInterval == 0 {
		cfg.SampleInterval = DefaultConfig().SampleInterval
	}
	if cfg.SSBSize <= 0 {
		cfg.SSBSize = DefaultConfig().SSBSize
	}
	if cfg.IntervalJitter == 0 {
		cfg.IntervalJitter = cfg.SampleInterval / 4
	}
	return &PMU{cfg: cfg, ssb: make([]Sample, 0, cfg.SSBSize), rng: 0x9e3779b97f4a7c15}
}

// nextInterval returns the jittered sampling interval.
func (p *PMU) nextInterval() uint64 {
	if p.cfg.IntervalJitter == 0 {
		return p.cfg.SampleInterval
	}
	p.rng = p.rng*6364136223846793005 + 1442695040888963407
	j := (p.rng >> 33) % p.cfg.IntervalJitter
	return p.cfg.SampleInterval - p.cfg.IntervalJitter/2 + j
}

// Config returns the programmed configuration.
func (p *PMU) Config() Config { return p.cfg }

// SetHandler installs the SSB overflow handler (ADORE's signal handler).
func (p *PMU) SetHandler(h OverflowHandler) { p.handler = h }

// Start enables sampling beginning at the given cycle.
func (p *PMU) Start(now uint64) {
	p.enabled = true
	p.nextSampleAt = now + p.nextInterval()
}

// Stop disables sampling and flushes a partial SSB to the handler, so the
// optimizer sees the tail of the run.
func (p *PMU) Stop() {
	p.enabled = false
	p.flush()
}

// NextSampleAt returns the cycle of the next sample, or ^0 while sampling
// is off. The CPU keeps a copy to compare against on every retire and
// re-reads it wherever the schedule can change.
func (p *PMU) NextSampleAt() uint64 {
	if !p.enabled {
		return ^uint64(0)
	}
	return p.nextSampleAt
}

// OnBranch records a retired branch in the BTB.
func (p *PMU) OnBranch(src, dst uint64, taken bool) {
	p.btb[p.btbPos] = BranchRec{Src: src, Dst: dst, Taken: taken}
	p.btbPos = (p.btbPos + 1) % BTBEntries
	if p.btbLen < BTBEntries {
		p.btbLen++
	}
}

// OnLoadMiss records a data-cache load miss. Every L1D load miss bumps the
// miss counter; misses at or above the DEAR threshold also latch the DEAR.
func (p *PMU) OnLoadMiss(pc, addr uint64, latency uint32) {
	p.DMiss++
	if latency >= p.cfg.DearLatencyMin {
		p.dear = DearRec{PC: pc, Addr: addr, Latency: latency, Valid: true}
	}
}

// TakeSample captures one sample at the given PC and cycle count. The CPU
// calls it when cycles cross NextSampleAt.
func (p *PMU) TakeSample(pc, cycles uint64) {
	if !p.enabled {
		return
	}
	p.Cycles = cycles
	s := Sample{
		Index:   p.sampleIndex,
		PC:      pc,
		Cycles:  p.Cycles,
		Retired: p.Retired,
		DMiss:   p.DMiss,
		DEAR:    p.dear,
	}
	// Copy the BTB oldest-first.
	n := p.btbLen
	s.NBTB = n
	for i := 0; i < n; i++ {
		s.BTB[i] = p.btb[(p.btbPos-n+i+BTBEntries)%BTBEntries]
	}
	p.dear.Valid = false // DEAR is consumed by the sample that reads it
	p.sampleIndex++
	p.TotalSamples++
	p.ssb = append(p.ssb, s)
	p.nextSampleAt = cycles + p.nextInterval()
	if len(p.ssb) >= p.cfg.SSBSize {
		p.overflow()
	}
}

func (p *PMU) overflow() {
	p.Overflows++
	p.OverheadCycles += uint64(len(p.ssb)) * p.cfg.HandlerCyclesPerSample
	if p.handler != nil {
		p.handler(p.ssb)
	} else {
		p.SamplesDropped += uint64(len(p.ssb))
	}
	p.ssb = p.ssb[:0]
}

func (p *PMU) flush() {
	if len(p.ssb) > 0 {
		p.overflow()
	}
}

// PendingSamples reports the current SSB fill level.
func (p *PMU) PendingSamples() int { return len(p.ssb) }
