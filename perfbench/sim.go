package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"varsim/internal/config"
	"varsim/internal/core"
	"varsim/internal/journal"
	"varsim/internal/machine"
	"varsim/internal/precision"
	"varsim/internal/rng"
	"varsim/internal/sampling"
	"varsim/internal/workloads"
)

// confidence and relErr are the paper's precision target: ±4% at 95%.
const (
	confidence = 0.95
	relErr     = 0.04
)

// fleetWidth is the benchmark's fleet width: two workers, or one on a
// single-CPU host. It is fixed so that the study is the same on any
// host with two CPUs or more.
func fleetWidth() int { return min(2, runtime.GOMAXPROCS(0)) }

// arm is one configuration of a simulated study: its experiment, the
// frozen checkpoint built in set-up, and the space of perturbed runs.
type arm struct {
	exp  core.Experiment
	base *machine.Machine
	// fleetBase says the fleet branched the space from base. Otherwise
	// the study built its own checkpoint with exp.Prepare, as
	// core.Experiment.AdaptiveSpace does.
	fleetBase bool
	space     core.Space
	ops       int // index of the arm's first op
}

// checkpoint builds the experiment's frozen checkpoint the way
// core.Experiment.Prepare does, with a span around each layer call.
// The decomposed pass checks that the two build the same machine.
func checkpoint(it *iteration, e core.Experiment) (*machine.Machine, error) {
	end := it.begin("workload.new")
	wl, err := workloads.New(e.Workload, e.Config, e.WorkloadSeed)
	end()
	if err != nil {
		return nil, err
	}
	end = it.begin("machine.new")
	m, err := machine.New(e.Config, wl, rng.Derive(e.SeedBase, 0))
	end()
	if err != nil {
		return nil, err
	}
	if e.WarmupTxns > 0 {
		end = it.begin("machine.warmup")
		_, err = m.Run(e.WarmupTxns)
		end()
		if err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
	}
	end = it.begin("machine.freeze")
	m.Freeze()
	end()
	return m, nil
}

// oltpL2Assoc is the Table-1 study: OLTP on the 8-CPU machine with a
// 2-way and a 4-way L2, fixed-N perturbed runs from warmed checkpoints
// with a journal and a precision tracker, the comparison and its Wrong
// Conclusion Ratio, then a resume pass that must replay both spaces.
func oltpL2Assoc(it *iteration) error {
	arms := make([]*arm, 2)
	for i, assoc := range []int{2, 4} {
		cfg := config.Default()
		cfg.NumCPUs = it.size.cpus
		cfg.L2.Assoc = assoc
		e := core.Experiment{
			Label: fmt.Sprintf("%d-way", assoc), Config: cfg, Workload: "oltp",
			WorkloadSeed: it.seed, WarmupTxns: it.size.oltpWarmup, MeasureTxns: it.size.oltpMeasure,
			Runs: it.size.oltpRuns, SeedBase: rng.Derive(it.seed, 0x11+uint64(assoc)), Workers: fleetWidth(),
		}
		base, err := checkpoint(it, e)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Label, err)
		}
		arms[i] = &arm{exp: e, base: base, fleetBase: true, ops: i * e.Runs}
	}
	it.setupDone()
	it.ops = 2 * it.size.oltpRuns

	dir, err := os.MkdirTemp(it.work, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	end := it.begin("journal.create")
	w, err := journal.CreateDir(dir)
	end()
	if err != nil {
		return err
	}
	tracker := precision.New(relErr, confidence)
	for _, a := range arms {
		t0 := time.Now()
		end := it.begin("core.branch")
		parent := it.tr.current()
		res := core.Resilience{Journal: w, Observe: func(k journal.Key, r machine.Result) {
			t0 := time.Now()
			// A non-finite CPT is rejected here and fails checkRuns.
			_ = tracker.Observe(k.Experiment, k.ConfigHash, "cpt", r.CPT)
			it.tr.leaf("precision.observe", parent, t0)
		}}
		a.space, err = core.BranchSpaceRes(a.base, a.exp.Label, a.exp.Runs, a.exp.MeasureTxns, a.exp.SeedBase, a.exp.Workers, res)
		end()
		it.branch += time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s: %w", a.exp.Label, err)
		}
		it.instrs += instrs(a.space)
	}
	end = it.begin("journal.close")
	err = w.Close()
	end()
	if err != nil {
		it.failAll("journal: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, journal.FileName)); err == nil {
		it.counts["journal.bytes"] = fi.Size()
	}

	end = it.begin("core.compare")
	cmp, cmpErr := core.Compare(arms[0].space, arms[1].space, confidence)
	end()
	end = it.begin("core.wcr")
	wcr := core.WCR(arms[0].space.Values, arms[1].space.Values)
	end()

	end = it.begin("journal.open")
	cache, w2, err := journal.OpenDir(dir, func(format string, args ...any) {
		it.failAll("journal recovery on a clean journal: "+format, args...)
	})
	end()
	if err != nil {
		return err
	}
	resumed := make([]core.Space, len(arms))
	resumedOK := make([]bool, len(arms))
	for i, a := range arms {
		e := a.exp
		e.Resilience = core.Resilience{Cache: cache}
		end := it.begin("core.resume")
		resumed[i], resumedOK[i] = e.CachedSpace()
		end()
	}
	if err := w2.Close(); err != nil {
		it.failAll("journal: %v", err)
	}

	end = it.begin("bench.check")
	for i, a := range arms {
		checkRuns(it, a, true)
		if !resumedOK[i] || !sameResults(resumed[i].Results, a.space.Results) {
			it.failRange(a.ops, a.ops+a.exp.Runs, "%s: resume pass did not replay the space", a.exp.Label)
		}
	}
	checkTracker(it, tracker, arms)
	if cmpErr != nil {
		it.failAll("compare: %v", cmpErr)
	} else if wantWCR := 100 * core.WCR(cmp.Slower.Values, cmp.Faster.Values); !finite(cmp.TTest.P) ||
		cmp.TTest.P < 0 || cmp.TTest.P > 1 || !finite(cmp.MeanDiffPct) || cmp.WCRPct != wantWCR ||
		wcr < 0 || wcr > 1 || !finite(cmp.CISlower.HalfWidth) || !finite(cmp.CIFast.HalfWidth) {
		it.failAll("compare: inconsistent comparison %+v (WCR %v)", cmp.TTest, wcr)
	}
	it.hash = answerHash(struct {
		Spaces [][]machine.Result
		P, WCR float64
	}{[][]machine.Result{arms[0].space.Results, arms[1].space.Results}, cmp.TTest.P, wcr})
	end()
	it.studyDone()
	return decompose(it, arms)
}

// splashAdaptive is the Table-3 scientific study: Barnes and Ocean as
// whole-program runs from empty caches, each sampled by the adaptive
// scheduler until its mean is known to ±4% at 95% confidence.
//
// AdaptiveSpace takes an experiment, not a checkpoint, and builds its
// own with Prepare inside the study. The set-up checkpoints here are
// the same build, timed as set-up, and serve the decomposed pass.
func splashAdaptive(it *iteration) error {
	arms := make([]*arm, 2)
	for i, name := range []string{"barnes", "ocean"} {
		cfg := config.Default()
		cfg.NumCPUs = it.size.cpus
		e := core.Experiment{
			Label: name, Config: cfg, Workload: name, WorkloadSeed: it.seed,
			MeasureTxns: 1, // the whole program
			Runs:        it.size.splashMaxRuns, SeedBase: rng.Derive(it.seed, 0x33), Workers: fleetWidth(),
		}
		base, err := checkpoint(it, e)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		arms[i] = &arm{exp: e, base: base}
	}
	it.setupDone()

	target := sampling.Target{RelErr: relErr, Confidence: confidence, MaxRuns: it.size.splashMaxRuns}
	sarms := make([]sampling.Arm, len(arms))
	for i, a := range arms {
		t0 := time.Now()
		end := it.begin("core.adaptive")
		sp, sarm, err := a.exp.AdaptiveSpace(target)
		end()
		it.branch += time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s: %w", a.exp.Label, err)
		}
		a.space, a.ops, sarms[i] = sp, it.ops, sarm
		it.ops += len(sp.Results)
		it.instrs += instrs(sp)
		it.counts["sampling.runs_executed"] += int64(sarm.Executed)
		it.counts["sampling.rounds"] += int64(sarm.Rounds)
	}

	end := it.begin("bench.check")
	for i, a := range arms {
		checkRuns(it, a, false)
		s := sarms[i]
		if s.Executed != len(a.space.Results) || s.Rounds < 1 ||
			(s.Status != sampling.StatusConverged && s.Status != sampling.StatusBudget) ||
			(s.Status == sampling.StatusConverged && s.RelPct > 100*relErr) {
			it.failRange(a.ops, a.ops+len(a.space.Results), "%s: inconsistent sampling arm %+v", a.exp.Label, s)
		}
	}
	it.hash = answerHash(struct {
		Spaces [][]machine.Result
		Arms   []sampling.Arm
	}{[][]machine.Result{arms[0].space.Results, arms[1].space.Results}, sarms})
	end()
	it.studyDone()
	return decompose(it, arms)
}

// checkRuns checks that every run settled its measured transactions
// with a finite, positive cycles-per-transaction; fixed says the
// space must hold exactly the experiment's Runs.
func checkRuns(it *iteration, a *arm, fixed bool) {
	sp := a.space
	if (fixed && len(sp.Results) != a.exp.Runs) || len(sp.Values) != len(sp.Results) || sp.Incomplete() {
		it.failRange(a.ops, a.ops+max(a.exp.Runs, len(sp.Results)), "%s: space holds %d of %d runs", a.exp.Label, len(sp.Results), a.exp.Runs)
	}
	for i, r := range sp.Results {
		if r.Txns < a.exp.MeasureTxns || !finite(r.CPT) || r.CPT <= 0 || r.Instrs <= 0 || sp.Values[i] != r.CPT {
			it.fail(a.ops+i, "%s run %d: %d txns, CPT %v", a.exp.Label, i, r.Txns, r.CPT)
		}
	}
}

// checkTracker checks that the precision tracker saw every run once.
func checkTracker(it *iteration, t *precision.Tracker, arms []*arm) {
	rep := t.Report()
	for _, a := range arms {
		n := -1
		for _, row := range rep.Rows {
			if row.Experiment == a.exp.Label {
				n = row.N
			}
		}
		if n != len(a.space.Results) {
			it.failRange(a.ops, a.ops+a.exp.Runs, "%s: precision tracker saw %d of %d runs", a.exp.Label, n, len(a.space.Results))
		}
	}
}

// decompose re-runs every branch of every arm directly — Snapshot,
// SetPerturbSeed, Run, as the fleet job does — timing each layer call
// and reading the program's own counters. Its results must equal the
// fleet's. It branches from the checkpoint the fleet did not use: the
// set-up one when the study prepared its own, otherwise a fresh
// exp.Prepare. Equal results then also show that the benchmark's
// set-up builds the machine Prepare builds.
func decompose(it *iteration, arms []*arm) error {
	if !it.decompose {
		return nil
	}
	end := it.begin("decompose")
	defer end()
	var ms runtime.MemStats
	for _, a := range arms {
		base := a.base
		if a.fleetBase {
			var err error
			endSpan := it.begin("bench.prepare")
			base, err = a.exp.Prepare()
			if err == nil {
				base.Freeze()
			}
			endSpan()
			if err != nil {
				return fmt.Errorf("%s: %w", a.exp.Label, err)
			}
		}
		// A branch starts from its base's counters, so the base's
		// registry is every run's starting point; reading it here keeps
		// it out of the timed windows.
		before := base.Metrics().Snapshot()
		for i, want := range a.space.Results {
			runtime.ReadMemStats(&ms)
			alloc0 := ms.TotalAlloc
			t0 := time.Now()
			m := base.Snapshot()
			t1 := time.Now()
			m.SetPerturbSeed(rng.Derive(a.exp.SeedBase, 1+uint64(i)))
			t2 := time.Now()
			got, err := m.Run(a.exp.MeasureTxns)
			t3 := time.Now()
			runtime.ReadMemStats(&ms)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", a.exp.Label, i, err)
			}
			it.tr.record("machine.snapshot", t0, t1)
			it.tr.record("machine.run", t2, t3)
			if got != want {
				it.fail(a.ops+i, "%s run %d: decomposed result differs from the fleet's", a.exp.Label, i)
			}
			it.runs = append(it.runs, decomposedRun{
				snapshot: t1.Sub(t0), run: t3.Sub(t2), allocBytes: ms.TotalAlloc - alloc0,
				result: got, dramAccesses: uint64(m.Metrics().Snapshot().Delta(before, "dram.accesses")),
			})
		}
	}
	return nil
}

// instrs is the simulated instructions of a space's runs.
func instrs(sp core.Space) int64 {
	var n int64
	for _, r := range sp.Results {
		n += r.Instrs
	}
	return n
}

// sameResults reports whether two spaces hold identical runs.
func sameResults(a, b []machine.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
