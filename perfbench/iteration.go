package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"varsim/internal/machine"
)

// size scales a study. fullSize is the benchmark; tests use tinySize.
type size struct {
	cpus int // simulated processors

	oltpWarmup, oltpMeasure int64 // transactions
	oltpRuns                int   // perturbed runs per L2 configuration

	splashMaxRuns int // the adaptive run budget per benchmark

	planReps     int // generated pilot studies per (CoV, effect) cell
	table5Levels int // Table 5's significance levels its pilots are planned at, loosest first
}

var (
	fullSize = size{cpus: 8, oltpWarmup: 500, oltpMeasure: 200, oltpRuns: 20, splashMaxRuns: 20, planReps: 6, table5Levels: 5}
	tinySize = size{cpus: 2, oltpWarmup: 20, oltpMeasure: 10, oltpRuns: 3, splashMaxRuns: 4, planReps: 1, table5Levels: 1}
)

// iteration is one study: its set-up, the study to a verified answer,
// and, optionally, the decomposed pass. The workload fills it in.
type iteration struct {
	index     int
	seed      uint64
	size      size
	work      string
	tr        *tracer // nil when this study is untraced
	decompose bool

	start, studyStart time.Time
	setups            []time.Duration  // one per set-up; see lapSetup
	setup, study      time.Duration    // setup sums setups
	memStart, memEnd  runtime.MemStats // around the study
	closeSpan         func()           // closes the open set-up or study span
	ops               int              // ops attempted: runs, or planned comparisons
	failed            map[int]string   // failed op index → first reason
	instrs            int64            // simulated instructions while branching
	branch            time.Duration    // host time spent branching
	hash              string           // digest of the study's answer
	runs              []decomposedRun  // the decomposed pass, sim workloads
	counts            map[string]int64 // exact per-study counts the program returned
}

// decomposedRun is one branch re-run outside the fleet.
type decomposedRun struct {
	snapshot, run time.Duration
	allocBytes    uint64 // heap bytes allocated by Snapshot and Run
	result        machine.Result
	dramAccesses  uint64 // from the machine's metrics registry
}

// execute runs the workload's study on this iteration.
func (it *iteration) execute(w workload) error {
	runtime.GC() // start every study from the same heap state
	it.counts = map[string]int64{}
	it.start = time.Now()
	it.closeSpan = it.tr.begin("setup")
	if err := w.study(it); err != nil {
		return err
	}
	if it.study == 0 {
		return fmt.Errorf("workload never finished its study")
	}
	return nil
}

// lapSetup ends one set-up and starts timing the next. A workload
// whose set-up takes milliseconds repeats it, so that setup_s is a
// median of several samples however few studies a run makes.
func (it *iteration) lapSetup() {
	now := time.Now()
	it.setups = append(it.setups, now.Sub(it.start))
	it.start = now
}

// setupDone marks the end of set-up and the start of the study.
func (it *iteration) setupDone() {
	it.lapSetup()
	for _, d := range it.setups {
		it.setup += d
	}
	it.closeSpan()
	runtime.ReadMemStats(&it.memStart)
	it.closeSpan = it.tr.begin("study")
	it.studyStart = time.Now()
}

// studyDone marks the verified answer.
func (it *iteration) studyDone() {
	it.study = time.Since(it.studyStart)
	it.closeSpan()
	runtime.ReadMemStats(&it.memEnd)
}

// allocBytes is the heap bytes allocated during the study.
func (it *iteration) allocBytes() uint64 { return it.memEnd.TotalAlloc - it.memStart.TotalAlloc }

// begin opens a span when this study is traced.
func (it *iteration) begin(name string) func() { return it.tr.begin(name) }

// fail marks op as failed by an output check.
func (it *iteration) fail(op int, format string, args ...any) {
	if _, seen := it.failed[op]; !seen {
		it.failed[op] = fmt.Sprintf(format, args...)
	}
}

// failRange marks ops [lo, hi) as failed.
func (it *iteration) failRange(lo, hi int, format string, args ...any) {
	for op := lo; op < hi; op++ {
		it.fail(op, format, args...)
	}
}

// failAll marks every op of the study as failed: the answer as a whole
// is wrong. It fails at least one op, so no failure goes uncounted.
func (it *iteration) failAll(format string, args ...any) {
	it.failRange(0, max(it.ops, 1), format, args...)
}

// failures lists the distinct reasons, for the log.
func (it *iteration) failures() []string {
	seen := map[string]bool{}
	var out []string
	ops := make([]int, 0, len(it.failed))
	for op := range it.failed {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	for _, op := range ops {
		if msg := it.failed[op]; !seen[msg] {
			seen[msg] = true
			out = append(out, fmt.Sprintf("op %d: %s", op, msg))
		}
	}
	return out
}

// answerHash digests the study's answer: every simulated result and
// every plan, encoded as JSON.
func answerHash(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
