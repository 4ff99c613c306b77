package main

import (
	"math"

	"varsim/internal/core"
	"varsim/internal/rng"
	"varsim/internal/sampling"
	"varsim/internal/stats"
)

// The plan_stats design: pilot studies spanning the paper's Table-3
// coefficients of variation, the mean differences of Tables 1 and 2,
// and Table 5's five significance levels.
var (
	planCoVs    = []float64{0.0016, 0.0031, 0.0088, 0.0098, 0.0140, 0.0360}
	planEffects = []float64{0.013, 0.025, 0.046, 0.065, 0.16}
	planAlphas  = []float64{0.10, 0.05, 0.025, 0.01, 0.005}
)

// table5Pilot is a pilot study planned as Table 5 plans one: by
// stats.MinRunsProjected from its moments and by
// stats.MinRunsForSignificance over its runs, at every significance
// level, with no further analysis.
type table5Pilot struct {
	runs         int
	meanA, meanB float64 // slower, faster
	sdA, sdB     float64
}

// table5Pilots are the pilots of `experiments -quick table5`: its ROB
// study (32 vs 64 entries, 6 runs each), whose nearly equal means make
// MinRunsProjected search up to 27343..110459 runs, which is where
// table5 spends its time; and the same pilot as a simulator without
// perturbation gives it, identical runs (means rounded to whole
// cycles, so they stay exact), for which there is no variance to
// project from and so no solution (0).
var table5Pilots = []table5Pilot{
	{runs: 6, meanA: 4493.7666666666664, meanB: 4492.1625000000004, sdA: 171.7248953025352, sdB: 120.9885043609515},
	{runs: 6, meanA: 4494, meanB: 4492},
}

// projectedCap is the largest n stats.MinRunsProjected tries.
const projectedCap = 1_000_000

const (
	planSetups    = 8    // input generations per study, for setup_s
	pilotRuns     = 20   // the paper's sample size
	followRuns    = 64   // the budget a generated stream may spend
	baseCPT       = 5000 // cycles per transaction of the faster configuration
	bootResamples = 1000
)

// pilotPair is one generated pilot study: a slower configuration a and
// a faster b, with exactly the design's means and standard deviation,
// plus longer streams of further runs of each.
type pilotPair struct {
	cov, effect  float64
	a, b         []float64 // pilotRuns each
	longA, longB []float64 // followRuns each
	seed         uint64
}

// planAnswer is everything plan_stats concludes for one pilot pair;
// its digest is the study's answer.
type planAnswer struct {
	levelPlans
	P         float64 // one-sided t-test on the pilots
	CIA, CIB  stats.ConfidenceInterval
	Strat     stats.ConfidenceInterval
	Boot      stats.ConfidenceInterval
	Decisions []sampling.Decision
}

// levelPlans is what planning one pilot pair concludes at each
// significance level.
type levelPlans struct {
	Plans     []core.Plan // core.PlanRuns; none for Table 5's pilots
	Projected []int       // stats.MinRunsProjected
	Empirical []int       // stats.MinRunsForSignificance over the longer streams
}

// rowAnswer is what plan_stats concludes for one CoV row of one
// replicate: the ANOVA over its effect arms, the Neyman split of a run
// budget across them, and which of them the matrix prune drops.
type rowAnswer struct {
	F, P   float64
	Neyman []int
	Pruned []bool
}

// genPilots generates the study's inputs from the seed.
func genPilots(seed uint64, reps int) []pilotPair {
	var out []pilotPair
	for rep := 0; rep < reps; rep++ {
		for _, cov := range planCoVs {
			for _, eff := range planEffects {
				s := rng.Derive(seed, uint64(len(out)))
				r := rng.New(s)
				sd := cov * baseCPT
				out = append(out, pilotPair{
					cov: cov, effect: eff, seed: s,
					a:     exactSample(&r, pilotRuns, baseCPT*(1+eff), sd),
					b:     exactSample(&r, pilotRuns, baseCPT, sd),
					longA: normalSample(&r, followRuns, baseCPT*(1+eff), sd),
					longB: normalSample(&r, followRuns, baseCPT, sd),
				})
			}
		}
	}
	return out
}

// exactSample draws n normal values and rescales them so their sample
// mean and standard deviation are exactly mean and sd: the plan then
// depends only on the design, not on the draw.
func exactSample(r *rng.Stream, n int, mean, sd float64) []float64 {
	xs := normalSample(r, n, 0, 1)
	m, s := stats.Mean(xs), stats.StdDev(xs)
	for i := range xs {
		xs[i] = mean + sd*(xs[i]-m)/s
	}
	return xs
}

func normalSample(r *rng.Stream, n int, mean, sd float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm(mean, sd)
	}
	return xs
}

// planStats is the paper's analysis with no simulation: every pilot
// pair is planned at every significance level and analysed, each CoV
// row gets ANOVA, a Neyman budget split and a prune, and Table 5's
// pilots are planned at its levels. An op is one planned comparison, a
// (pilot pair, significance level).
func planStats(it *iteration) error {
	var pilots, t5 []pilotPair
	for i := 0; i < planSetups; i++ {
		if i > 0 {
			it.lapSetup()
		}
		end := it.begin("bench.generate")
		pilots = genPilots(it.seed, it.size.planReps)
		t5 = genTable5(it.seed, len(pilots))
		end()
	}
	it.setupDone()
	levels := planAlphas[:it.size.table5Levels]
	it.ops = len(pilots)*len(planAlphas) + len(t5)*len(levels)

	answers := make([]planAnswer, len(pilots))
	for pi := range pilots {
		answers[pi] = analysePilot(it, &pilots[pi], pi*len(planAlphas))
	}
	perRow := len(planEffects)
	rows := make([]rowAnswer, 0, len(pilots)/perRow)
	for lo := 0; lo < len(pilots); lo += perRow {
		rows = append(rows, analyseRow(it, pilots[lo:lo+perRow], lo*len(planAlphas)))
	}
	t5Plans := make([]levelPlans, len(t5))
	for i, p := range t5 {
		op0 := len(pilots)*len(planAlphas) + i*len(levels)
		t5Plans[i] = planLevels(it, p, p.a, p.b, levels, op0, false)
	}
	end := it.begin("bench.check")
	it.hash = answerHash(struct {
		Pilots []planAnswer
		Rows   []rowAnswer
		Table5 []levelPlans
	}{answers, rows, t5Plans})
	end()
	it.studyDone()
	return nil
}

// genTable5 generates Table 5's pilots, each with exactly its moments;
// their seeds follow the n pilot pairs genPilots drew.
func genTable5(seed uint64, n int) []pilotPair {
	out := make([]pilotPair, len(table5Pilots))
	for i, t := range table5Pilots {
		r := rng.New(rng.Derive(seed, uint64(n+i)))
		out[i] = pilotPair{
			cov: t.sdA / t.meanA, effect: t.meanA/t.meanB - 1,
			a: exactSample(&r, t.runs, t.meanA, t.sdA),
			b: exactSample(&r, t.runs, t.meanB, t.sdB),
		}
	}
	return out
}

// timed runs f inside a span called name.
func timed[T any](it *iteration, name string, f func() T) T {
	end := it.begin(name)
	defer end()
	return f()
}

// timedErr is timed for calls that also return an error.
func timedErr[T any](it *iteration, name string, f func() (T, error)) (T, error) {
	end := it.begin(name)
	defer end()
	return f()
}

// analysePilot plans and analyses one pilot pair; its ops are
// [op0, op0+len(planAlphas)).
func analysePilot(it *iteration, p *pilotPair, op0 int) planAnswer {
	var ans planAnswer
	failPair := func(format string, args ...any) {
		it.failRange(op0, op0+len(planAlphas), format, args...)
	}
	ans.levelPlans = planLevels(it, *p, p.longA, p.longB, planAlphas, op0, true)
	var err error
	ans.CIA, err = timedErr(it, "stats.ci", func() (stats.ConfidenceInterval, error) { return stats.CI(p.a, confidence) })
	if err != nil || !sane(ans.CIA) {
		failPair("CI %+v: %v", ans.CIA, err)
	}
	ans.CIB, err = timedErr(it, "stats.ci", func() (stats.ConfidenceInterval, error) { return stats.CI(p.b, confidence) })
	if err != nil || !sane(ans.CIB) {
		failPair("CI %+v: %v", ans.CIB, err)
	}
	tt, err := timedErr(it, "stats.ttest", func() (stats.TTestResult, error) { return stats.TTestOneSided(p.a, p.b) })
	ans.P = tt.P
	if err != nil || !(tt.P >= 0 && tt.P <= 1) {
		failPair("t-test %+v: %v", tt, err)
	}
	strata := [][]float64{p.longA[:16], p.longA[16:32], p.longA[32:48], p.longA[48:]}
	ans.Strat, err = timedErr(it, "stats.stratified_ci", func() (stats.ConfidenceInterval, error) {
		return stats.StratifiedCI(strata, confidence)
	})
	if err != nil || !sane(ans.Strat) {
		failPair("stratified CI %+v: %v", ans.Strat, err)
	}
	ans.Boot, err = timedErr(it, "stats.bootstrap", func() (stats.ConfidenceInterval, error) {
		return stats.BootstrapCI(p.a, confidence, bootResamples, p.seed)
	})
	if err != nil || !sane(ans.Boot) {
		failPair("bootstrap CI %+v: %v", ans.Boot, err)
	}
	// The adaptive stopping rule, barrier by barrier over the stream.
	target := sampling.Target{RelErr: relErr / 10, Confidence: confidence, MaxRuns: followRuns}.Normalize()
	for n, round := target.MinRuns, 0; ; round++ {
		d := timed(it, "sampling.decide", func() sampling.Decision { return sampling.Decide(p.longA[:n], round, target) })
		ans.Decisions = append(ans.Decisions, d)
		if d.Validate() != nil || d.N != n || (d.Action == sampling.ActionStop && d.RelPct > 100*target.RelErr) {
			failPair("decision %+v at n=%d", d, n)
			break
		}
		if d.Action != sampling.ActionContinue {
			break
		}
		n += d.Next
	}
	return ans
}

// planLevels plans one pilot pair at each significance level: by
// stats.MinRunsProjected on the pilot moments, empirically over the
// streams longA and longB, and, when viaPlanRuns is set, by
// core.PlanRuns too. Its ops are [op0, op0+len(alphas)).
func planLevels(it *iteration, p pilotPair, longA, longB []float64, alphas []float64, op0 int, viaPlanRuns bool) levelPlans {
	var out levelPlans
	pa, pb := core.Space{Label: "slower", Values: p.a}, core.Space{Label: "faster", Values: p.b}
	ma, mb := stats.Mean(p.a), stats.Mean(p.b)
	sd := (stats.StdDev(p.a) + stats.StdDev(p.b)) / 2
	for k, alpha := range alphas {
		var plan core.Plan
		if viaPlanRuns {
			plan = timed(it, "core.plan", func() core.Plan { return core.PlanRuns(pa, pb, relErr, alpha) })
			out.Plans = append(out.Plans, plan)
		}
		n := timed(it, "stats.min_runs_projected", func() int { return stats.MinRunsProjected(ma, mb, sd, alpha) })
		emp := timed(it, "stats.min_runs_for_significance", func() int {
			return stats.MinRunsForSignificance(longA, longB, alpha, len(longA))
		})
		out.Projected = append(out.Projected, n)
		out.Empirical = append(out.Empirical, emp)
		ok := rejectsFirstAt(n, ma, mb, sd, alpha) && emp >= 0 && emp <= len(longA)
		if viaPlanRuns {
			ok = ok && plan.ByHypothesis == n && (plan.ByRelativeError >= 1) == (sd > 0)
		}
		if !ok {
			it.fail(op0+k, "cov %.4f effect %.5f alpha %.3f: plan %+v, projected %d", p.cov, p.effect, alpha, plan, n)
		}
	}
	return out
}

// analyseRow runs the across-arm analyses over one CoV row's pilot
// pairs (one per effect size); its ops are the row's planned
// comparisons, starting at op0.
func analyseRow(it *iteration, row []pilotPair, op0 int) rowAnswer {
	var ans rowAnswer
	failRow := func(format string, args ...any) {
		it.failRange(op0, op0+len(row)*len(planAlphas), format, args...)
	}
	groups := make([][]float64, 0, len(row)+1)
	sds := make([]float64, 0, len(row)+1)
	groups = append(groups, row[0].b)
	sds = append(sds, stats.StdDev(row[0].longB))
	for _, p := range row {
		groups = append(groups, p.a)
		sds = append(sds, stats.StdDev(p.longA))
	}
	av, err := timedErr(it, "stats.anova", func() (stats.ANOVAResult, error) { return stats.OneWayANOVA(groups) })
	ans.F, ans.P = av.F, av.P
	if err != nil || !finite(av.F) || !(av.P >= 0 && av.P <= 1) {
		failRow("ANOVA %+v: %v", av, err)
	}
	ans.Neyman = timed(it, "sampling.neyman", func() []int { return sampling.NeymanAllocate(sds, followRuns) })
	total := 0
	for _, k := range ans.Neyman {
		total += k
	}
	if len(ans.Neyman) != len(sds) || total != followRuns {
		failRow("Neyman split %v of %d runs", ans.Neyman, followRuns)
	}
	ans.Pruned = timed(it, "sampling.prune", func() []bool { return sampling.Prune(groups, confidence) })
	// The faster configuration (group 0) has the lowest mean by design
	// and must never be pruned.
	if len(ans.Pruned) != len(groups) || ans.Pruned[0] {
		failRow("prune %v dropped the best arm", ans.Pruned)
	}
	return ans
}

// rejectsFirstAt reports whether n is the smallest number of runs at
// which the projected one-sided t-test rejects at level alpha: it
// rejects at n and not at n-1. n = 0 is right when there is nothing to
// project from (no variance, or no mean difference in the tested
// direction) or when the test does not reject even at projectedCap.
func rejectsFirstAt(n int, meanA, meanB, sd, alpha float64) bool {
	rejects := func(n int) bool {
		t := (meanA - meanB) / math.Sqrt(2*sd*sd/float64(n))
		return t > stats.TQuantile(1-alpha, float64(2*n-2))
	}
	if n == 0 {
		return sd <= 0 || meanA <= meanB || !rejects(projectedCap)
	}
	return n >= 2 && rejects(n) && (n == 2 || !rejects(n-1))
}

// sane reports whether a confidence interval is finite, ordered and
// holds its mean.
func sane(ci stats.ConfidenceInterval) bool {
	return finite(ci.Lo) && finite(ci.Hi) && ci.Lo <= ci.Mean && ci.Mean <= ci.Hi
}
