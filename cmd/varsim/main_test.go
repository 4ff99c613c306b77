package main

import (
	"os"
	"path/filepath"
	"testing"

	"varsim"
	"varsim/internal/fleet"
	"varsim/internal/journal"
)

// captureStdout runs f with os.Stdout redirected to a file and returns
// what f printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := os.Stdout
	os.Stdout = out
	runErr := f()
	os.Stdout = saved
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b), runErr
}

// TestRunJournalsAndReplays drives run, the varsim space mode, with a
// journal in three capture modes: plain, -digest-us and -perfetto.
// Each pass journals one ok record per run (plus one digest record per
// run under -digest-us). A second pass over the journal prints the same
// report: the untraced modes replay it whole, scheduling no fleet job,
// and -perfetto re-simulates, because trace events are not journaled.
func TestRunJournalsAndReplays(t *testing.T) {
	modes := []struct {
		name     string
		digestUS int64
		perfetto bool
	}{
		{"plain", 0, false},
		{"digest-us", 50, false},
		{"perfetto", 0, true},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := varsim.DefaultConfig()
			cfg.NumCPUs = 4
			e := varsim.Experiment{
				Label: "oltp/simple", Config: cfg, Workload: "oltp", WorkloadSeed: 1,
				WarmupTxns: 50, MeasureTxns: 20, Runs: 3, SeedBase: 1, Workers: 2,
				DigestIntervalNS: m.digestUS * 1000,
			}
			rc := runCfg{wlName: "oltp", seed: 1, pseed: 1}
			if m.perfetto {
				rc.perfetto = filepath.Join(dir, "trace.json")
			}
			jw, err := journal.CreateDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			e.Resilience = varsim.Resilience{Journal: jw}
			first, err := captureStdout(t, func() error { return run(e, rc) })
			if err != nil {
				t.Fatal(err)
			}
			if err := jw.Close(); err != nil {
				t.Fatal(err)
			}

			jc, jw2, err := journal.OpenDir(dir, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			wantDigests := 0
			if m.digestUS > 0 {
				wantDigests = e.Runs
			}
			if jc.Len() != e.Runs || jc.DigestLen() != wantDigests {
				t.Fatalf("journal holds %d run and %d digest records, want %d and %d",
					jc.Len(), jc.DigestLen(), e.Runs, wantDigests)
			}
			for i := 0; i < e.Runs; i++ {
				if _, ok := jc.Get(e.RunKey(i)); !ok {
					t.Errorf("run %d has no ok record", i)
				}
			}

			e.Resilience = varsim.Resilience{Journal: jw2, Cache: jc}
			jobs := fleet.Read().JobsTotal
			second, err := captureStdout(t, func() error { return run(e, rc) })
			if err != nil {
				t.Fatal(err)
			}
			if err := jw2.Close(); err != nil {
				t.Fatal(err)
			}
			wantJobs := int64(0)
			if m.perfetto {
				wantJobs = int64(e.Runs)
			}
			if got := fleet.Read().JobsTotal - jobs; got != wantJobs {
				t.Errorf("second pass scheduled %d fleet jobs, want %d", got, wantJobs)
			}
			if second != first {
				t.Errorf("second pass printed\n%s\nfirst pass printed\n%s", second, first)
			}
		})
	}
}
