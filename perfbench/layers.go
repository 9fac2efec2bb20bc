package main

import "repro/internal/metrics"

// registryLayers reads what the engine exports on its metric registry:
// the simulated counts it folds from every finished job, which must repeat
// bit-for-bit between iterations, and its job and cache counters. It adds
// them to the iteration's per-layer values and exact counts.
func registryLayers(reg *metrics.Registry, it *iteration) {
	c := func(name string) uint64 { return reg.Counter(name, "").Value() }
	counts := []exactCount{
		{"cpu.sim_insts", c("adore_sim_instructions_total")},
		{"cpu.sim_cycles", c("adore_sim_cycles_total")},
		{"memsys.l1d_misses", c("adore_mem_l1d_misses_total")},
		{"memsys.l2_misses", c("adore_mem_l2_misses_total")},
		{"memsys.l3_misses", c("adore_mem_l3_misses_total")},
		{"memsys.pf_issued", c("adore_mem_prefetch_issued_total")},
		{"memsys.pf_useful", c("adore_mem_prefetch_useful_total")},
		{"core.phases", c("adore_core_phases_detected_total")},
		{"core.patches", c("adore_core_patches_installed_total")},
	}
	it.exact = append(counts, it.exact...)
	for _, e := range counts {
		if e.name != "memsys.pf_useful" {
			it.layer[e.name] = float64(e.value)
		}
	}
	it.simInsts = c("adore_sim_instructions_total")
	it.layer["memsys.pf_useful_ratio"] = ratio(c("adore_mem_prefetch_useful_total"), c("adore_mem_prefetch_issued_total"))

	rh, rm := c("adore_engine_result_cache_hits_total"), c("adore_engine_result_cache_misses_total")
	bh, bm := c("adore_engine_build_cache_hits_total"), c("adore_engine_build_cache_misses_total")
	it.layer["engine.jobs"] = float64(c("adore_engine_jobs_completed_total"))
	it.layer["engine.resultcache_hit_ratio"] = ratio(rh, rh+rm)
	it.layer["setup.runs"] = float64(rm)
	it.layer["compiler.builds"] = float64(bm)
	it.layer["harness.buildcache.hit_ratio"] = ratio(bh, bh+bm)
	if h := reg.Histogram("adore_engine_queue_wait_ns", ""); h.Count() > 0 {
		it.layer["engine.queue_wait_ms"] = float64(h.Sum()) / float64(h.Count()) / 1e6
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
