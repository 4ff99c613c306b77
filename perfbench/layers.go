package main

import (
	"fmt"
	"io"
	"time"
)

// layerMetrics reduces the traced studies (and the untraced ones run
// beside them, for the tracing overhead) to the per-layer metrics. A
// layer the workload does not call reads 0.
func layerMetrics(w workload, tr *tracer, traced, plain []*iteration) (map[string]metric, map[string]quantile, error) {
	m := map[string]metric{}
	tails := map[string]quantile{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	// spanQ reports a percentile of one span's durations in unit scale.
	spanQ := func(name, span string, pct, scale float64, unit string) {
		q := percentile(tr.seconds(span), pct)
		if q.N == 0 {
			q.Value = 0
		}
		q.Value *= scale
		tails[name] = q
		put(name, q.Value, unit)
	}
	perStudy := func(name, span string, unit string) {
		put(name, orZero(median(tr.perStudy(span))), unit)
	}
	count := func(name string) {
		put(name, median(collect(traced, func(it *iteration) float64 { return float64(it.counts[name]) })), "count")
	}

	spanQ("workload.new_ms", "workload.new", 50, 1e3, "ms")
	spanQ("machine.new_ms", "machine.new", 50, 1e3, "ms")
	spanQ("machine.warmup_s", "machine.warmup", 50, 1, "s")
	spanQ("machine.freeze_us", "machine.freeze", 50, 1e6, "us")
	spanQ("machine.snapshot_us", "machine.snapshot", 50, 1e6, "us")
	spanQ("machine.run_ms_p50", "machine.run", 50, 1e3, "ms")
	spanQ("machine.run_ms_p90", "machine.run", 90, 1e3, "ms")
	perStudy("core.branch_s", "core.branch", "s")
	spanQ("core.compare_ms", "core.compare", 50, 1e3, "ms")
	spanQ("core.resume_ms", "core.resume", 50, 1e3, "ms")
	perStudy("core.adaptive_s", "core.adaptive", "s")
	spanQ("core.plan_us_p50", "core.plan", 50, 1e6, "us")
	spanQ("core.plan_us_p99", "core.plan", 99, 1e6, "us")
	spanQ("journal.open_ms", "journal.open", 50, 1e3, "ms")
	spanQ("journal.close_ms", "journal.close", 50, 1e3, "ms")
	count("journal.bytes")
	spanQ("precision.observe_us_p50", "precision.observe", 50, 1e6, "us")
	spanQ("stats.min_runs_projected_us_p50", "stats.min_runs_projected", 50, 1e6, "us")
	spanQ("stats.min_runs_projected_us_p99", "stats.min_runs_projected", 99, 1e6, "us")
	spanQ("stats.ci_us_p50", "stats.ci", 50, 1e6, "us")
	spanQ("stats.ttest_us_p50", "stats.ttest", 50, 1e6, "us")
	spanQ("stats.anova_us_p50", "stats.anova", 50, 1e6, "us")
	spanQ("stats.stratified_ci_us_p50", "stats.stratified_ci", 50, 1e6, "us")
	spanQ("stats.bootstrap_ms_p50", "stats.bootstrap", 50, 1e3, "ms")
	spanQ("sampling.decide_us_p50", "sampling.decide", 50, 1e6, "us")
	spanQ("sampling.neyman_us_p50", "sampling.neyman", 50, 1e6, "us")
	spanQ("sampling.prune_us_p50", "sampling.prune", 50, 1e6, "us")
	count("sampling.runs_executed")
	count("sampling.rounds")

	// The decomposed pass: exact work per run, host cost per run.
	var runs []decomposedRun
	for _, it := range traced {
		runs = append(runs, it.runs...)
	}
	perRun := func(name, unit string, f func(decomposedRun) float64) {
		var sum float64
		for _, r := range runs {
			sum += f(r)
		}
		v := 0.0
		if len(runs) > 0 {
			v = sum / float64(len(runs))
		}
		put(name, v, unit)
	}
	perRun("workload.instrs_per_run", "count", func(r decomposedRun) float64 { return float64(r.result.Instrs) })
	perRun("machine.events_per_run", "count", func(r decomposedRun) float64 { return float64(r.result.Events) })
	perRun("mem.l1d_misses_per_run", "count", func(r decomposedRun) float64 { return float64(r.result.L1DMisses) })
	perRun("mem.l2_misses_per_run", "count", func(r decomposedRun) float64 { return float64(r.result.L2Misses) })
	perRun("mem.bus_requests_per_run", "count", func(r decomposedRun) float64 { return float64(r.result.BusRequests) })
	perRun("mem.c2c_per_run", "count", func(r decomposedRun) float64 { return float64(r.result.CacheToCache) })
	perRun("dram.fetches_per_run", "count", func(r decomposedRun) float64 { return float64(r.dramAccesses) })
	perRun("kernel.ctx_switches_per_run", "count", func(r decomposedRun) float64 { return float64(r.result.CtxSwitches) })
	perRun("kernel.lock_contentions_per_run", "count", func(r decomposedRun) float64 { return float64(r.result.LockContentions) })
	perRun("machine.alloc_kb_per_run", "kB", func(r decomposedRun) float64 { return float64(r.allocBytes) / 1e3 })
	var runNS, events float64
	for _, r := range runs {
		runNS += float64(r.run.Nanoseconds())
		events += float64(r.result.Events)
	}
	put("machine.host_ns_per_event", ratio(runNS, events), "ns")

	// fleet.busy_frac: the decomposed run time of a study's branches
	// over the fleet's capacity while it branched them.
	put("fleet.busy_frac", orZero(median(collect(traced, func(it *iteration) float64 {
		var busy time.Duration
		for _, r := range it.runs {
			busy += r.snapshot + r.run
		}
		return ratio(busy.Seconds(), float64(fleetWidth())*it.branch.Seconds())
	}))), "ratio")

	mips := 0.0
	if w.sim {
		mips = simMIPS(traced)
	}
	put("sim_mips", mips, "Minstr/s")

	put("runtime.gc_cycles", median(collect(traced, func(it *iteration) float64 {
		return float64(it.memEnd.NumGC - it.memStart.NumGC)
	})), "count")
	put("runtime.gc_pause_ms", median(collect(traced, func(it *iteration) float64 {
		return float64(it.memEnd.PauseTotalNs-it.memStart.PauseTotalNs) / 1e6
	})), "ms")
	put("runtime.heap_peak_mb", maxOf(collect(traced, func(it *iteration) float64 {
		return float64(it.memEnd.HeapSys) / 1e6
	})), "MB")

	studyTraced := median(collect(traced, func(it *iteration) float64 { return it.study.Seconds() }))
	studyPlain := median(collect(plain, func(it *iteration) float64 { return it.study.Seconds() }))
	put("trace.overhead_pct", 100*(studyTraced/studyPlain-1), "%")
	put("trace.unattributed_frac", tr.unattributed("study"), "ratio")
	return m, tails, checkMetrics(m)
}

// printLayers prints each layer's self and total time from the spans.
func printLayers(out io.Writer, tr *tracer) {
	names, self, total, count := tr.layerSelf()
	fmt.Fprintf(out, "  %-34s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %8d %12.6f %12.6f\n", n, count[n], total[n], self[n])
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// orZero maps the NaN of an empty sample to 0: the layer was not
// called.
func orZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
