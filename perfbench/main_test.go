package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/rng"
	"varsim/internal/stats"
)

// declared reads the metric declarations from the repository's
// BENCHMARK.json.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, "|") != workloadNames() {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %s", names, workloadNames())
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload at a tiny size in both modes and
// requires exactly the declared metrics, each finite with its unit: a
// missing or NaN metric is an error.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloadList {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			t.Run(w.name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				o := options{seed: 7, trace: traced, work: t.TempDir(), size: tinySize}
				var out bytes.Buffer
				res, err := measure(w, o, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v\n%s", res, out.String())
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
						continue
					}
					if m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %v %q, want a finite value in %q", name, m.Value, m.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not declared in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

// tinyArm branches a small OLTP space the way oltp_l2assoc does, from
// a set-up checkpoint built with extraWarmup more warmup transactions
// than the experiment asks for.
func tinyArm(t *testing.T, it *iteration, extraWarmup int64) *arm {
	t.Helper()
	cfg := config.Default()
	cfg.NumCPUs = tinySize.cpus
	e := core.Experiment{Label: "2-way", Config: cfg, Workload: "oltp", WorkloadSeed: 3,
		WarmupTxns: tinySize.oltpWarmup, MeasureTxns: tinySize.oltpMeasure, Runs: tinySize.oltpRuns,
		SeedBase: rng.Derive(3, 0x13), Workers: 2}
	built := e
	built.WarmupTxns += extraWarmup
	base, err := checkpoint(it, built)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := core.BranchSpace(base, e.Label, e.Runs, e.MeasureTxns, e.SeedBase, e.Workers)
	if err != nil {
		t.Fatal(err)
	}
	it.ops = e.Runs
	return &arm{exp: e, base: base, fleetBase: true, space: sp}
}

// TestCorruptedResultTripsChecks corrupts one settled run and requires
// both the run check and the decomposed pass to fail exactly that op.
func TestCorruptedResultTripsChecks(t *testing.T) {
	it := &iteration{failed: map[int]string{}, decompose: true, counts: map[string]int64{}}
	a := tinyArm(t, it, 0)
	checkRuns(it, a, true)
	if err := decompose(it, []*arm{a}); err != nil {
		t.Fatal(err)
	}
	if len(it.failed) != 0 {
		t.Fatalf("clean space failed its checks: %v", it.failures())
	}

	a.space.Results[1].CPT = math.NaN()
	a.space.Values[1] = math.NaN()
	checkRuns(it, a, true)
	if _, ok := it.failed[1]; !ok || len(it.failed) != 1 {
		t.Fatalf("a NaN CPT in run 1 failed ops %v", it.failures())
	}

	it = &iteration{failed: map[int]string{}, decompose: true}
	a.space.Results[1].CPT, a.space.Values[1] = 1, 1
	a.space.Results[1].Txns++
	if err := decompose(it, []*arm{a}); err != nil {
		t.Fatal(err)
	}
	if _, ok := it.failed[1]; !ok || len(it.failed) != 1 {
		t.Fatalf("a corrupted run 1 failed ops %v in the decomposed pass", it.failures())
	}
	if sameResults(a.space.Results[:1], a.space.Results[1:2]) {
		t.Fatal("sameResults equated two different runs")
	}
}

// TestSetupDriftTripsDecompose builds the set-up checkpoint
// differently from core.Experiment.Prepare and requires the decomposed
// pass, which branches from Prepare's checkpoint, to fail every run.
func TestSetupDriftTripsDecompose(t *testing.T) {
	it := &iteration{failed: map[int]string{}, decompose: true}
	a := tinyArm(t, it, 1)
	if err := decompose(it, []*arm{a}); err != nil {
		t.Fatal(err)
	}
	if len(it.failed) != a.exp.Runs {
		t.Fatalf("a set-up checkpoint one warmup transaction off failed ops %v", it.failures())
	}
}

// TestPlanCheck pins the t-test property every plan must have: n
// rejects and n-1 does not, and 0 only when no n up to the search cap
// can reject.
func TestPlanCheck(t *testing.T) {
	for _, alpha := range planAlphas {
		n := stats.MinRunsProjected(5065, 5000, 80, alpha)
		if !rejectsFirstAt(n, 5065, 5000, 80, alpha) {
			t.Fatalf("alpha %v: MinRunsProjected %d fails the check", alpha, n)
		}
		if rejectsFirstAt(n+1, 5065, 5000, 80, alpha) || rejectsFirstAt(n-1, 5065, 5000, 80, alpha) {
			t.Fatalf("alpha %v: the check accepts a plan other than %d", alpha, n)
		}
		if rejectsFirstAt(0, 5065, 5000, 80, alpha) {
			t.Fatalf("alpha %v: the check accepts no solution where there is one", alpha)
		}
		for _, c := range [][3]float64{{5065, 5000, 0}, {5000, 5065, 80}, {5000.001, 5000, 80}} {
			if !rejectsFirstAt(0, c[0], c[1], c[2], alpha) {
				t.Fatalf("alpha %v: means %v, %v and sd %v have no solution, but the check wants one", alpha, c[0], c[1], c[2])
			}
		}
	}
}

// TestChangedAnswerFailsRun gives one study a different answer from
// the run's first and requires the run to report every op of it failed.
func TestChangedAnswerFailsRun(t *testing.T) {
	w := workload{name: "plan_stats", study: func(it *iteration) error {
		err := planStats(it)
		if it.index == 1 {
			it.hash = "corrupted"
		}
		return err
	}}
	o := options{seed: 7, work: t.TempDir(), size: tinySize}
	var out bytes.Buffer
	res, err := measure(w, o, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
		t.Fatalf("result %+v after a changed answer", res)
	}
	if !strings.Contains(out.String(), "FAIL plan_stats study 1") {
		t.Fatalf("no failure logged:\n%s", out.String())
	}
}

// TestPercentile pins the ten-beyond rule.
func TestPercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	if q := percentile(xs, 90); q.Pct != 90 || q.N != 200 {
		t.Fatalf("p90 of 200 = %+v", q)
	}
	if q := percentile(xs[:40], 90); q.Pct != 75 {
		t.Fatalf("p90 of 40 = %+v, want p75", q)
	}
	if q := percentile(xs[:5], 90); q.Pct != 50 || q.Value != 2 {
		t.Fatalf("p90 of 5 = %+v, want the median", q)
	}
}

// TestUnattributed requires the benchmark's own spans to count as
// unattributed study time and layer spans as attributed.
func TestUnattributed(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "study", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "stats.ci", Start: 0, End: 40},
		{ID: 3, Parent: 1, Name: "bench.check", Start: 40, End: 90},
	}}
	if got := tr.unattributed("study"); got != 0.6 {
		t.Fatalf("unattributed = %v, want 0.6", got)
	}
}

// TestCovered pins the union of overlapping child spans.
func TestCovered(t *testing.T) {
	ivs := [][2]int64{{5, 10}, {0, 3}, {8, 20}, {2, 4}}
	if got := covered(ivs, 1, 15); got != 3+10 {
		t.Fatalf("covered = %d, want 13", got)
	}
}
