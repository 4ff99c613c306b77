// Branch and Replay tests: the resilience plumbing holds for every
// capture set, a drained range keeps its traces aligned, and a frozen
// prepared checkpoint branches concurrently.
package core_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"varsim/internal/core"
	"varsim/internal/faultinject"
	"varsim/internal/fleet"
	"varsim/internal/journal"
)

// TestTracedBranchJournals: a traced Branch with a journal appends one
// ok record per run — plus a digest record per run when DigestNS > 0 —
// and feeds the observer every run, exactly as an untraced one does.
func TestTracedBranchJournals(t *testing.T) {
	for _, digestNS := range []int64{0, digTickNS} {
		e := resumeExperiment(4)
		e.DigestIntervalNS = digestNS
		base, err := e.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		jw, err := journal.CreateDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var seen observeLog
		s := e.Spec()
		s.Trace = true
		s.Res = core.Resilience{Journal: jw, Observe: seen.hook()}
		b, err := core.Branch(base, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		if len(b.Traces) != e.Runs || len(b.Traces[0]) == 0 {
			t.Fatalf("digest %d: got %d traces, want %d non-empty", digestNS, len(b.Traces), e.Runs)
		}
		if seen.n != e.Runs {
			t.Errorf("digest %d: observer saw %d runs, want %d", digestNS, seen.n, e.Runs)
		}
		jc, jw2, err := journal.OpenDir(dir, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		if err := jw2.Close(); err != nil {
			t.Fatal(err)
		}
		wantDigests := 0
		if digestNS > 0 {
			wantDigests = e.Runs
		}
		if jc.Len() != e.Runs || jc.DigestLen() != wantDigests {
			t.Fatalf("digest %d: journal holds %d run and %d digest records, want %d and %d",
				digestNS, jc.Len(), jc.DigestLen(), e.Runs, wantDigests)
		}
		for i := 0; i < e.Runs; i++ {
			if _, ok := jc.Get(e.RunKey(i)); !ok {
				t.Errorf("digest %d: run %d has no ok record", digestNS, i)
			}
		}
		// The journaled runs replay as the traced pass measured them.
		s.Trace = false
		s.Res = core.Resilience{Cache: jc}
		rb, ok := core.Replay(s)
		if !ok || !reflect.DeepEqual(rb.Space.Results, b.Space.Results) {
			t.Errorf("digest %d: replay of the traced journal differs (ok=%v)", digestNS, ok)
		}
	}
}

// TestTracedBranchDrain: a drain mid-range returns the partial space
// with global Missing indices, and traces still aligned to the range —
// empty exactly at the missing runs.
func TestTracedBranchDrain(t *testing.T) {
	e := resumeExperiment(1)
	base, err := e.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	hook := &faultinject.Hook{StopAfter: 2, Stop: make(chan struct{})}
	s := e.Spec()
	s.Lo, s.Hi = 3, e.Runs
	s.Trace = true
	s.Res = core.Resilience{Stop: hook.Stop, TestHook: hook}
	b, err := core.Branch(base, s)
	var inc *fleet.Incomplete
	if !errors.As(err, &inc) {
		t.Fatalf("drained branch returned %v, want *fleet.Incomplete", err)
	}
	if len(b.Space.Values) != 2 || len(b.Space.Missing) != s.Hi-s.Lo-2 {
		t.Fatalf("got %d runs and %d missing, want 2 and %d", len(b.Space.Values), len(b.Space.Missing), s.Hi-s.Lo-2)
	}
	if len(b.Traces) != s.Hi-s.Lo {
		t.Fatalf("got %d traces, want %d (range-aligned)", len(b.Traces), s.Hi-s.Lo)
	}
	missing := map[int]bool{}
	for _, i := range b.Space.Missing {
		if i < s.Lo || i >= s.Hi {
			t.Fatalf("missing index %d outside [%d, %d)", i, s.Lo, s.Hi)
		}
		missing[i] = true
	}
	for j, evs := range b.Traces {
		if missing[s.Lo+j] != (len(evs) == 0) {
			t.Errorf("run %d: missing=%v but %d trace events", s.Lo+j, missing[s.Lo+j], len(evs))
		}
	}
}

// TestReplayRefusesTrace: a journal that covers the range replays an
// untraced spec, never a traced one — events are not journaled.
func TestReplayRefusesTrace(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.CreateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := resumeExperiment(4)
	e.Resilience = core.Resilience{Journal: jw}
	if _, err := e.RunSpace(); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	jc, jw2, err := journal.OpenDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer jw2.Close()
	e.Resilience = core.Resilience{Cache: jc}
	s := e.Spec()
	if _, ok := core.Replay(s); !ok {
		t.Fatal("full journal did not satisfy Replay")
	}
	s.Trace = true
	if _, ok := core.Replay(s); ok {
		t.Error("Replay served a traced spec from the journal")
	}
}

// TestPreparedBaseConcurrentBranch branches four spaces concurrently
// from one prepared checkpoint, as Table 4 does with its run lengths.
// Prepare returns the checkpoint frozen, so each Branch only reads it:
// the race detector must stay quiet and every space must equal its
// sequential counterpart. Each repetition starts from a fresh Prepare,
// giving the detector several unfrozen-latch windows to catch.
func TestPreparedBaseConcurrentBranch(t *testing.T) {
	e := resumeExperiment(1)
	e.Runs = 2
	spec := func(i int) core.Spec {
		s := e.Spec()
		s.SeedBase += uint64(i)
		return s
	}
	for rep := 0; rep < 4; rep++ {
		base, err := e.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		// Every job waits until all four have started, so each of the
		// four workers holds exactly one job and the Branch calls overlap.
		var started sync.WaitGroup
		started.Add(4)
		got, err := fleet.Map(4, 4, func(i int) (core.Space, error) {
			started.Done()
			started.Wait()
			b, err := core.Branch(base, spec(i))
			return b.Space, err
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, sp := range got {
			want, err := core.Branch(base, spec(i))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sp.Results, want.Space.Results) {
				t.Errorf("space %d differs between concurrent and sequential branching", i)
			}
		}
	}
}
