package workload

import (
	"sync"
	"testing"

	"varsim/internal/digest"
	"varsim/internal/rng"
)

func sciProfile() SciProfile {
	return SciProfile{
		Name:           "sci",
		Threads:        4,
		Phases:         3,
		InstrPerPhase:  1000,
		PartitionBytes: 4096,
		SweepStride:    64,
		SharedBytes:    8192,
		SharedReads:    8,
		SharedTheta:    0.5,
		BoundaryRows:   2,
		WriteFrac:      0.5,
	}
}

func TestSciPhaseStructure(t *testing.T) {
	e := NewSciEngine(sciProfile(), 1)
	if e.NumBarriers() != 1 || e.NumLocks() != 1 || e.NumSpinLocks() != 1 {
		t.Fatal("resource counts wrong")
	}
	barriers := make([]int, e.NumThreads())
	done := make([]bool, e.NumThreads())
	txnEnds := 0
	for running := true; running; {
		running = false
		for tid := 0; tid < e.NumThreads(); tid++ {
			if done[tid] {
				continue
			}
			running = true
			op := e.Next(tid)
			switch op.Kind {
			case OpBarrier:
				barriers[tid]++
			case OpTxnEnd:
				txnEnds++
			case OpDone:
				done[tid] = true
			}
		}
	}
	for tid, b := range barriers {
		if b != 3 {
			t.Errorf("thread %d passed %d barriers, want 3", tid, b)
		}
	}
	if txnEnds != 1 {
		t.Errorf("scientific program reported %d transactions, want exactly 1", txnEnds)
	}
}

func TestSciDoneIsSticky(t *testing.T) {
	e := NewSciEngine(sciProfile(), 2)
	for i := 0; i < 100000; i++ {
		if e.Next(1).Kind == OpDone {
			break
		}
	}
	for i := 0; i < 10; i++ {
		if e.Next(1).Kind != OpDone {
			t.Fatal("finished thread produced non-Done op")
		}
	}
}

func TestSciPartitionsDisjoint(t *testing.T) {
	e := NewSciEngine(sciProfile(), 3)
	for i := 0; i < len(e.parts); i++ {
		for j := i + 1; j < len(e.parts); j++ {
			a, b := e.parts[i], e.parts[j]
			if a.Base < b.Base+b.Size && b.Base < a.Base+a.Size {
				t.Fatalf("partitions %d and %d overlap", i, j)
			}
		}
	}
}

func TestSciBoundarySharing(t *testing.T) {
	e := NewSciEngine(sciProfile(), 4)
	// Thread 1 must read from its neighbours' partitions at least once.
	other := 0
	own := e.parts[1]
	for i := 0; i < 10000; i++ {
		op := e.Next(1)
		if op.Kind == OpDone {
			break
		}
		if op.Kind == OpLoad && !own.Contains(op.Addr) && !e.shared.Contains(op.Addr) {
			other++
		}
	}
	if other == 0 {
		t.Fatal("no boundary reads from neighbour partitions")
	}
}

func TestSciCloneContinues(t *testing.T) {
	e := NewSciEngine(sciProfile(), 5)
	for i := 0; i < 57; i++ {
		e.Next(i % 4)
	}
	c := e.Clone().(*SciEngine)
	for i := 0; i < 500; i++ {
		tid := i % 4
		if e.Next(tid) != c.Next(tid) {
			t.Fatalf("clone diverged at %d", i)
		}
	}
}

func TestSciValidation(t *testing.T) {
	p := sciProfile()
	p.Threads = 0
	if p.Validate() == nil {
		t.Error("zero threads accepted")
	}
	p = sciProfile()
	p.PartitionBytes = -1
	if p.Validate() == nil {
		t.Error("negative partition accepted")
	}
}

// oceanShape and barnesShape mirror the Ocean and Barnes profiles of
// internal/workloads (which imports this package, so they are restated
// here), at the test's thread count.
func oceanShape(threads, phases int) SciProfile {
	return SciProfile{
		Name: "ocean", Threads: threads, Phases: phases,
		InstrPerPhase: 30_000, PartitionBytes: 2 << 20, SweepStride: 64,
		SharedBytes: 1 << 20, SharedReads: 32, SharedTheta: 0.50,
		BoundaryRows: 16, WriteFrac: 0.50,
	}
}

func barnesShape(threads, phases int) SciProfile {
	return SciProfile{
		Name: "barnes", Threads: threads, Phases: phases,
		InstrPerPhase: 40_000, PartitionBytes: 512 << 10, SweepStride: 256,
		SharedBytes: 8 << 20, SharedReads: 200, SharedTheta: 0.60,
		BoundaryRows: 0, WriteFrac: 0.25,
	}
}

// streamProfiles are the shapes the streamed engine is checked on: the
// test profile, Barnes and Ocean, and the corners of the phase shape —
// boundary rows past the partition's end (the neighbour offset wraps),
// no shared structure (a one-block Zipf that draws nothing), more
// shared reads than touches, sub-block and zero strides, touch counts
// that end mid-bitset-word, more than 64 phases (the phase PC wraps),
// and write fractions of 0 and 1.
func streamProfiles() []struct {
	name string
	prof SciProfile
} {
	edge := func(f func(p *SciProfile)) SciProfile {
		p := sciProfile()
		f(&p)
		return p
	}
	return []struct {
		name string
		prof SciProfile
	}{
		{"small", sciProfile()},
		{"barnes", barnesShape(4, 3)},
		{"ocean", oceanShape(3, 2)},
		{"boundary-past-partition", edge(func(p *SciProfile) { p.BoundaryRows, p.PartitionBytes = 6, 256 })},
		{"no-shared-bytes", edge(func(p *SciProfile) { p.SharedBytes, p.SharedReads = 0, 5 })},
		{"shared-reads-above-touches", edge(func(p *SciProfile) { p.SharedReads = 1000 })},
		{"sub-block-stride", edge(func(p *SciProfile) { p.SweepStride, p.PartitionBytes = 16, 37*64 })},
		{"zero-stride-empty-partition", edge(func(p *SciProfile) { p.SweepStride, p.PartitionBytes, p.SharedReads = 0, 0, 0 })},
		{"phases-above-64", edge(func(p *SciProfile) { p.Phases, p.PartitionBytes, p.BoundaryRows = 70, 131*64, 1 })},
		{"never-writes", edge(func(p *SciProfile) { p.WriteFrac, p.PartitionBytes = 0, 300*64 })},
		{"always-writes-one-thread", edge(func(p *SciProfile) { p.WriteFrac, p.Threads = 1, 1 })},
	}
}

// streamPair is a streamed engine beside the reference that must
// match it.
type streamPair struct {
	s    *SciEngine
	ref  *refSci
	done []bool
	left int
}

// checkStreamMatchesRef drives the streamed engine and the materialising
// reference through one random thread interleaving, op for op, until
// every thread returns OpDone. Along the way it clones pairs mid-phase
// (up to maxClones) and keeps advancing originals and clones alike, and
// it compares HashProgress at phase boundaries and at random points.
func checkStreamMatchesRef(t *testing.T, prof SciProfile, seed uint64, schedule uint64, maxClones int) {
	t.Helper()
	r := rng.New(schedule)
	pairs := []*streamPair{{
		s: NewSciEngine(prof, seed), ref: newRefSci(prof, seed),
		done: make([]bool, prof.Threads), left: prof.Threads,
	}}
	if progressDigest(pairs[0].s) != progressDigest(pairs[0].ref) {
		t.Fatal("fresh engines digest unequal")
	}
	// Spread the clone points over the whole program: about maxClones+1
	// gaps of the estimated total op count.
	est := prof.Threads * prof.Phases * (3*pairs[0].s.touches + 2*prof.BoundaryRows + 4)
	cloneEvery := max(est/(maxClones+1), 1)
	live := 1
	for step := 0; live > 0; step++ {
		pi := r.Intn(len(pairs))
		pr := pairs[pi]
		if pr.left == 0 {
			continue
		}
		tid := r.Intn(prof.Threads)
		for pr.done[tid] {
			tid = (tid + 1) % prof.Threads
		}
		got, want := pr.s.Next(tid), pr.ref.Next(tid)
		if got != want {
			t.Fatalf("pair %d step %d thread %d: streamed %+v, reference %+v", pi, step, tid, got, want)
		}
		if got.Kind == OpDone {
			pr.done[tid] = true
			pr.left--
			if pr.left == 0 {
				live--
			}
			if again := pr.s.Next(tid); again != (Op{Kind: OpDone}) {
				t.Fatalf("pair %d thread %d: op %+v after OpDone", pi, tid, again)
			}
			pr.ref.Next(tid)
		}
		if got.Kind == OpBarrier || got.Kind == OpDone || r.Intn(64) == 0 {
			if a, b := progressDigest(pr.s), progressDigest(pr.ref); a != b {
				t.Fatalf("pair %d step %d: streamed digest %x, reference %x", pi, step, a, b)
			}
		}
		if len(pairs) <= maxClones && pr.left > 0 && r.Intn(cloneEvery) == 0 {
			pairs = append(pairs, &streamPair{
				s: pr.s.Clone().(*SciEngine), ref: pr.ref.clone(),
				done: append([]bool(nil), pr.done...), left: pr.left,
			})
			live++
		}
	}
	if maxClones > 0 && len(pairs) == 1 {
		t.Fatal("no clone was taken; the schedule never exercised branching")
	}
	for pi, pr := range pairs {
		if a, b := progressDigest(pr.s), progressDigest(pr.ref); a != b {
			t.Fatalf("pair %d finished: streamed digest %x, reference %x", pi, a, b)
		}
	}
}

func TestSciStreamMatchesReference(t *testing.T) {
	for _, tc := range streamProfiles() {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 7, 42} {
				checkStreamMatchesRef(t, tc.prof, seed, seed*0x9E37+uint64(len(tc.name)), 3)
			}
		})
	}
}

// TestSciCloneConcurrent clones one mid-phase engine from several
// goroutines at once and runs every clone to completion: Clone must be
// write-free on the source (the race detector checks it under
// `make race`), and each clone must reproduce the sequential stream.
func TestSciCloneConcurrent(t *testing.T) {
	prof := sciProfile()
	base := NewSciEngine(prof, 9)
	for i := 0; i < 301; i++ {
		base.Next(i % prof.Threads)
	}
	run := func(e Instance) uint64 {
		d := digest.New()
		for tid := 0; tid < prof.Threads; tid++ {
			for {
				op := e.Next(tid)
				d.U64(uint64(op.Kind))
				d.U64(op.Addr)
				d.U64(op.PC)
				if op.Kind == OpDone {
					break
				}
			}
		}
		return d.Sum()
	}
	want := run(base.Clone())
	const workers = 4
	got := make([]uint64, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			got[w] = run(base.Clone())
		}(w)
	}
	wg.Wait()
	for w, g := range got {
		if g != want {
			t.Errorf("clone %d ran to %x, sequential clone to %x", w, g, want)
		}
	}
}
