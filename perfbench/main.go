// Command perfbench is varsim's benchmark: how long the simulator takes
// to bring a user to a statistically sound answer, end to end and per
// layer, on a commercial, a scientific and a planning workload.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	perfbench --workload oltp_l2assoc --seed 1 --seconds 30 --trace 0
//
// A run repeats the workload's study — set up from the seed, then
// driven to a verified answer — until --seconds of set-up and study
// time have passed, and prints every metric by name and unit, then one
// JSON object as the last line of standard output. With --trace 1 it
// records spans around its own calls into each package and reports
// per-layer metrics instead. Any failed output check makes the exit code non-zero. See
// README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one named study the benchmark can run.
type workload struct {
	name string
	// sim marks workloads that simulate; sim_mips applies only there.
	sim bool
	// study sets up from it.seed (calling it.setupDone at the frozen
	// checkpoints or generated inputs), drives the study to its answer
	// and checks it (calling it.studyDone), then, when it.decompose is
	// set, re-runs every branch directly.
	study func(it *iteration) error
}

var workloadList = []workload{
	{name: "oltp_l2assoc", sim: true, study: oltpL2Assoc},
	{name: "splash_adaptive", sim: true, study: splashAdaptive},
	{name: "plan_stats", study: planStats},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// defaultSeed is the seed whose answers are pinned in golden.go.
const defaultSeed = 1

// minStudies is the fewest studies an untraced run makes, however
// short --seconds is. A traced run makes at least one traced and one
// untraced study: one traced study already records hundreds of spans
// per layer it calls, and a plan_stats study takes ~10 s.
const minStudies = 2

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	work    string // scratch directory for journals and spans
	size    size
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var name string
	var traceFlag int
	fs.StringVar(&name, "workload", "", "workload to run: "+workloadNames())
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed the inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 30, "set-up and study time to measure, in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = record spans and report per-layer metrics")
	fs.StringVar(&o.work, "work", ".bench_build", "scratch directory inside the checkout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(name)
	if !ok || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %s and --trace 0|1\n", workloadNames())
		return 2
	}
	o.trace = traceFlag == 1
	o.size = fullSize
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := measure(w, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d ops failed their output checks\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloadList))
	for i, w := range workloadList {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure repeats the workload's study for o.seconds and reduces the
// iterations to metrics. In traced mode it alternates traced and
// untraced studies, so the tracing overhead is measured in the same
// process.
func measure(w workload, o options, stdout io.Writer) (result, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var plain, traced []*iteration
	// Every study of one seed must give the same answer: the pinned one
	// at the default seed, otherwise the run's first.
	reference, pinned := golden[w.name]
	pinned = pinned && o.seed == defaultSeed && o.size == fullSize
	if !pinned {
		reference = ""
	}
	attempted, failed := 0, 0
	// measured is the set-up and study time so far: --seconds bounds it,
	// so decomposed passes add to a run's length, not take from its
	// samples.
	var measured time.Duration
	start := time.Now()
	for i := 0; ; i++ {
		on := o.trace && i%2 == 0
		it := &iteration{index: i, seed: o.seed, size: o.size, work: o.work, failed: map[int]string{}}
		if on {
			it.tr = tr
			tr.setStudy(i)
		}
		// Every traced study decomposes (its samples are the per-layer
		// metrics); an untraced run decomposes its first study only, as
		// an output check, after that study's clock has stopped.
		it.decompose = on || (!o.trace && i == 0)
		if err := it.execute(w); err != nil {
			return result{}, fmt.Errorf("%s study %d: %w", w.name, i, err)
		}
		if reference == "" {
			reference = it.hash
		}
		if it.hash != reference {
			source := "this run's first study"
			if pinned {
				source = "golden.go"
			}
			it.failAll("answer hash %s differs from %s (%s)", it.hash, reference, source)
		}
		measured += it.setup + it.study
		attempted += it.ops
		failed += len(it.failed)
		for _, msg := range it.failures() {
			fmt.Fprintf(stdout, "FAIL %s study %d: %s\n", w.name, i, msg)
		}
		if on {
			traced = append(traced, it)
		} else {
			plain = append(plain, it)
		}
		enough := len(plain) >= minStudies
		if o.trace {
			enough = len(plain) >= 1 && len(traced) >= 1
		}
		if enough && measured.Seconds() >= o.seconds {
			break
		}
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed}
	fmt.Fprintf(stdout, "%s seed %d: answer %s, %d studies in %.1f s, %d ops attempted, %d failed\n",
		w.name, o.seed, reference, len(plain)+len(traced), time.Since(start).Seconds(), attempted, failed)
	var err error
	if o.trace {
		var tails map[string]quantile
		res.Metrics, tails, err = layerMetrics(w, tr, traced, plain)
		if err != nil {
			return result{}, err
		}
		printMetrics(stdout, res.Metrics, tails)
		printLayers(stdout, tr)
		path := filepath.Join(o.work, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
		if err := tr.write(path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), path)
		return res, nil
	}
	var counts map[string]quantile
	if res.Metrics, counts, err = endToEnd(plain); err != nil {
		return result{}, err
	}
	printMetrics(stdout, res.Metrics, counts)
	// failed_frac and sim_mips are end-to-end figures too, but one is 0
	// when all is well and the other is undefined without simulation,
	// so they are printed and not bounded.
	fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", "failed_frac", float64(failed)/float64(attempted), "ratio")
	if w.sim {
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", "sim_mips", simMIPS(plain), "Minstr/s")
	} else {
		fmt.Fprintf(stdout, "  %-34s %14s %s\n", "sim_mips", "n/a", "Minstr/s")
	}
	return res, nil
}

// endToEnd reduces untraced studies to the end-to-end metrics; each
// median comes with its sample count.
func endToEnd(its []*iteration) (map[string]metric, map[string]quantile, error) {
	m := map[string]metric{"peak_rss_mb": {peakRSSMB(), "MB"}}
	counts := map[string]quantile{}
	med := func(name, unit string, f func(*iteration) float64) {
		q := percentile(collect(its, f), 50)
		m[name], counts[name] = metric{q.Value, unit}, q
	}
	var setups []float64
	for _, it := range its {
		for _, d := range it.setups {
			setups = append(setups, d.Seconds())
		}
	}
	q := percentile(setups, 50)
	m["setup_s"], counts["setup_s"] = metric{q.Value, "s"}, q
	med("study_s", "s", func(it *iteration) float64 { return it.study.Seconds() })
	med("ops_per_s", "ops/s", func(it *iteration) float64 { return float64(it.ops) / it.study.Seconds() })
	med("alloc_mb", "MB", func(it *iteration) float64 { return float64(it.allocBytes()) / 1e6 })
	return m, counts, checkMetrics(m)
}

// simMIPS is simulated instructions per host second while branching.
func simMIPS(its []*iteration) float64 {
	return median(collect(its, func(it *iteration) float64 {
		return float64(it.instrs) / it.branch.Seconds() / 1e6
	}))
}

func collect(its []*iteration, f func(*iteration) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}

// checkMetrics rejects a metric that is missing its unit or is not a
// finite number: a broken measurement is an error, never a silent gap.
func checkMetrics(m map[string]metric) error {
	for name, v := range m {
		if v.Unit == "" || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v %q: not a finite measurement with a unit", name, v.Value, v.Unit)
		}
	}
	return nil
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// printMetrics prints metrics by name with their units, and for a
// percentile the one actually supported and its sample count.
func printMetrics(out io.Writer, m map[string]metric, tails map[string]quantile) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %14.6g %s", n, m[n].Value, m[n].Unit)
		if q, ok := tails[n]; ok && q.N > 0 {
			fmt.Fprintf(out, "  (p%g of n=%d)", q.Pct, q.N)
		}
		fmt.Fprintln(out)
	}
}
