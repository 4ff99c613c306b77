package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"varsim/internal/digest"
	"varsim/internal/fleet"
	"varsim/internal/journal"
	"varsim/internal/machine"
	"varsim/internal/rng"
	"varsim/internal/trace"
)

// Spec describes one branch of a space: the run-index range to execute
// from a checkpoint, the identity every run is filed under, and what
// each run captures besides its result. Run i is perturbed with seed
// rng.Derive(SeedBase, 1+i) and journaled under the key (Label,
// ConfigHash, that seed, i), whatever range it is submitted in — so a
// space assembled range by range (adaptive rounds, a resume) is
// record-for-record the space run in one go.
type Spec struct {
	Label string
	// ConfigHash is journal.ConfigHash of the checkpoint's
	// configuration, which Replay needs because it has no checkpoint.
	// Branch ignores it and hashes its checkpoint's configuration.
	ConfigHash  string
	SeedBase    uint64
	MeasureTxns int64
	// Workers is the fleet width, in the Experiment.Workers convention.
	Workers int
	Res     Resilience
	// Lo and Hi bound the run indices [Lo, Hi).
	Lo, Hi int
	// Trace records each run's structured event stream, at most
	// TraceCap events per run (0 = unbounded). Events are never
	// journaled, so traced runs never replay from a resume cache.
	Trace    bool
	TraceCap int
	// DigestNS, when positive, records an interval state digest every
	// DigestNS of simulated time in each run and journals the stream
	// beside the run's result.
	DigestNS int64
}

// Branched is a branched (or replayed) index range: the space and the
// captures the Spec asked for. Space is compacted — a drained range
// holds only the runs that executed, and Space.Missing lists the global
// indices that did not. Traces and Digests.Series stay aligned to the
// range instead: entry j belongs to run Lo+j and is empty for a missing
// run.
type Branched struct {
	Space   Space
	Traces  [][]trace.Event
	Digests SpaceDigests
}

// Spec returns the spec of the experiment's full space: runs [0, Runs)
// under its label, configuration and seed base, with digests at
// DigestIntervalNS and its resilience plumbing.
func (e Experiment) Spec() Spec {
	return Spec{
		Label:       e.Label,
		ConfigHash:  journal.ConfigHash(e.Config),
		SeedBase:    e.SeedBase,
		MeasureTxns: e.MeasureTxns,
		Workers:     e.Workers,
		Res:         e.Resilience,
		Hi:          e.Runs,
		DigestNS:    e.DigestIntervalNS,
	}
}

// key returns run i's journal identity. Replay matches on the full key,
// so a journal from a different config, seed base, or label never
// contaminates a resume.
func (s Spec) key(i int) journal.Key {
	return journal.Key{
		Experiment: s.Label,
		ConfigHash: s.ConfigHash,
		Seed:       rng.Derive(s.SeedBase, 1+uint64(i)),
		Index:      i,
	}
}

// branchRun is one run's fleet payload: its result plus the captures.
type branchRun struct {
	res    machine.Result
	events []trace.Event
	dig    digest.Series
}

// Branch runs s's index range [Lo, Hi) from the checkpoint m on one
// fleet of s.Workers workers — the paper's multiple-runs methodology
// (§3.3, §5.1). Each run is a pure job: a private Snapshot clone
// re-seeded from (SeedBase, index), so the result is byte-identical for
// every worker count. m is frozen (machine.Machine.Freeze) before the
// fleet starts: Snapshot on a frozen machine only reads it, so the
// copy-on-write clones may be taken concurrently.
//
// The resilience plumbing applies to every capture set: each settled
// run appends a run record to s.Res.Journal (plus a digest record when
// DigestNS > 0), Observe sees every successful run, JobTimeout and
// Retries bound each attempt (a retry re-derives the run's original
// seed), and closing Stop drains the fleet. Untraced runs with an ok
// record in s.Res.Cache replay from it instead of re-running.
//
// A drain returns the partial range together with the
// *fleet.Incomplete error, so resilience-aware callers can render a
// resumable partial report while everyone else fails loudly.
func Branch(m *machine.Machine, s Spec) (Branched, error) {
	n := s.Hi - s.Lo
	if n <= 0 {
		return s.collect(nil, nil), nil
	}
	s.ConfigHash = journal.ConfigHash(m.Config())
	res := s.Res
	opts := fleet.Options[branchRun]{
		Workers:   fleet.Width(s.Workers),
		Timeout:   res.JobTimeout,
		Retries:   res.Retries,
		Stop:      res.Stop,
		TestHook:  res.TestHook,
		IndexBase: s.Lo,
		Labels:    []string{"experiment", s.Label, "config", s.ConfigHash},
	}
	if res.Cache != nil && !s.Trace {
		opts.Cached = func(i int) (branchRun, bool) {
			key := s.key(i)
			r, ok := replayRun(res.Cache, key, s.DigestNS)
			// Cache hits bypass OnResult, so replays feed the precision
			// observer here — a resumed space observes every run once.
			if ok && res.Observe != nil {
				res.Observe(key, r.res)
			}
			return r, ok
		}
	}
	if res.Journal != nil || res.Observe != nil {
		opts.OnResult = func(i, attempts int, r branchRun, err error) {
			key := s.key(i)
			if err == nil && res.Observe != nil {
				res.Observe(key, r.res)
			}
			if res.Journal != nil {
				journalRun(res.Journal, key, attempts, r, err, s.DigestNS > 0)
			}
		}
	}
	m.Freeze()
	runs, err := fleet.Run(opts, n, func(i int) (branchRun, error) {
		c := m.Snapshot()
		c.SetPerturbSeed(rng.Derive(s.SeedBase, 1+uint64(i)))
		if s.Trace {
			c.EnableTrace(s.TraceCap)
		}
		if s.DigestNS > 0 {
			c.EnableDigests(s.DigestNS)
		}
		r, err := c.Run(s.MeasureTxns)
		if err != nil {
			return branchRun{}, err
		}
		out := branchRun{res: r}
		if s.Trace {
			out.events = c.Trace().Events()
		}
		if s.DigestNS > 0 {
			out.dig = c.DigestSeries()
		}
		return out, nil
	})
	var inc *fleet.Incomplete
	if errors.As(err, &inc) {
		return s.collect(runs, inc.Missing), err
	}
	if err != nil {
		return Branched{}, runError(err)
	}
	return s.collect(runs, nil), nil
}

// Replay is the whole-range resume path: it rebuilds s's range from the
// resume cache without a checkpoint, so a resume whose journal covers
// the range skips the warmup itself. It returns false on any missing or
// undecodable record — a run record, or with DigestNS > 0 a digest
// record at that cadence — and always for a traced spec. The observer
// is fed in index order only after every record decoded, so a caller
// falling back to Branch (where per-run hits still apply) cannot
// double-observe.
func Replay(s Spec) (Branched, bool) {
	if s.Res.Cache == nil || s.Trace || s.Hi <= s.Lo {
		return Branched{}, false
	}
	runs := make([]branchRun, s.Hi-s.Lo)
	for j := range runs {
		r, ok := replayRun(s.Res.Cache, s.key(s.Lo+j), s.DigestNS)
		if !ok {
			return Branched{}, false
		}
		runs[j] = r
	}
	if s.Res.Observe != nil {
		for j, r := range runs {
			s.Res.Observe(s.key(s.Lo+j), r.res)
		}
	}
	return s.collect(runs, nil), true
}

// replayRun decodes key's journaled result and, when digestNS > 0, its
// digest stream, which must have been recorded at digestNS: a journal
// without digests, or at another cadence, misses so the run re-simulates.
func replayRun(c *journal.Cache, key journal.Key, digestNS int64) (branchRun, bool) {
	rec, ok := c.Get(key)
	if !ok {
		return branchRun{}, false
	}
	var r branchRun
	if err := json.Unmarshal(rec.Result, &r.res); err != nil {
		return branchRun{}, false
	}
	if digestNS <= 0 {
		return r, true
	}
	drec, ok := c.Digest(key)
	if !ok {
		return branchRun{}, false
	}
	var err error
	if r.dig, err = journal.DecodeDigest(drec); err != nil || r.dig.IntervalNS != digestNS {
		return branchRun{}, false
	}
	return r, true
}

// journalRun appends one settled run to the journal: its run record
// (ok, or failed with the error) and, for a successful digested run,
// its digest record under the same key.
func journalRun(w *journal.Writer, key journal.Key, attempts int, r branchRun, err error, digested bool) {
	rec := journal.Record{Key: key, Attempts: attempts}
	if err != nil {
		rec.Status = journal.StatusFailed
		rec.Error = err.Error()
	} else if raw, merr := json.Marshal(r.res); merr != nil {
		rec.Status = journal.StatusFailed
		rec.Error = "core: unencodable result: " + merr.Error()
	} else {
		rec.Status = journal.StatusOK
		rec.Result = raw
	}
	// Append errors are sticky on the writer; the CLIs check
	// Writer.Err() at teardown rather than failing runs here.
	//varsim:allow stickyerr fire-and-forget by design: Writer.Err is checked at CLI teardown
	w.Append(rec)
	if rec.Status == journal.StatusOK && digested {
		if drec, derr := journal.DigestRecord(key, r.dig); derr == nil {
			//varsim:allow stickyerr fire-and-forget by design: Writer.Err is checked at CLI teardown
			w.Append(drec)
		}
	}
}

// collect assembles the range's runs (runs[j] is run Lo+j) into a
// Branched, skipping the global indices in missing.
func (s Spec) collect(runs []branchRun, missing []int) Branched {
	b := Branched{Space: Space{Label: s.Label, Missing: missing}}
	if s.Trace {
		b.Traces = make([][]trace.Event, len(runs))
	}
	if s.DigestNS > 0 {
		b.Digests = SpaceDigests{IntervalNS: s.DigestNS, Series: make([]digest.Series, len(runs))}
	}
	skip := make(map[int]bool, len(missing))
	for _, i := range missing {
		skip[i-s.Lo] = true
	}
	for j, r := range runs {
		if skip[j] {
			continue
		}
		b.Space.Values = append(b.Space.Values, r.res.CPT)
		b.Space.Results = append(b.Space.Results, r.res)
		if s.Trace {
			b.Traces[j] = r.events
		}
		if s.DigestNS > 0 {
			b.Digests.Series[j] = r.dig
		}
	}
	return b
}

// runError rewrites a fleet job failure in the package's historical
// "run %d" terms, preserving the wrapped cause.
func runError(err error) error {
	var je *fleet.JobError
	if errors.As(err, &je) {
		return fmt.Errorf("core: run %d: %w", je.Index, je.Err)
	}
	return err
}
