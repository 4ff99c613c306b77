package workload

import (
	"fmt"

	"varsim/internal/rng"
)

// SciProfile configures the barrier-synchronized scientific workload
// engine that stands in for the SPLASH-2 codes (Barnes-Hut, Ocean).
// One thread runs per processor; the whole program counts as a single
// transaction (Table 3 of the paper lists #transactions = 1 for both).
type SciProfile struct {
	Name          string
	Threads       int
	Phases        int   // barrier-delimited phases (timesteps x sub-phases)
	InstrPerPhase int64 // compute per thread per phase
	// Private partition streamed each phase (Ocean-style grid sweep).
	PartitionBytes int64
	SweepStride    int64 // bytes between consecutive touches (64 = every block)
	// Shared structure read each phase (Barnes-style tree walk).
	SharedBytes  int64
	SharedReads  int
	SharedTheta  float64
	BoundaryRows int // neighbour-partition blocks read per phase (Ocean)
	WriteFrac    float64
	CodeBytes    int64
}

// Validate checks internal consistency.
func (p *SciProfile) Validate() error {
	if p.Threads <= 0 || p.Phases <= 0 {
		return fmt.Errorf("scientific workload %s: need threads and phases", p.Name)
	}
	if p.PartitionBytes < 0 || p.SharedBytes < 0 {
		return fmt.Errorf("scientific workload %s: negative region size", p.Name)
	}
	return nil
}

// sciThread is one worker thread's generator state: a cursor over the
// current barrier phase. The phase's random draws are taken when it
// starts, in the order the ops consume them, into slices that are
// never written afterwards; every op is then produced from the cursor,
// so a phase costs a few KiB of draws instead of its whole op list.
type sciThread struct {
	rng   rng.Stream
	pos   int  // ops produced in the current phase
	n     int  // ops in the current phase
	phase int  // phases started; the current phase is phase-1
	done  bool // the program-end phase has started
	touch int  // current sweep touch; == touches once in the tail
	step  int  // op within the touch, or within the tail

	write []uint64 // bit i: touch i also stores
	taken []uint64 // bit i/4: the back-edge after touch i (i%4 == 3) is taken
	zipf  []uint64 // shared-read offsets, one per sharedEvery touches
}

// SciEngine implements Instance for barrier-phase scientific programs.
type SciEngine struct {
	prof    SciProfile
	threads []sciThread
	shared  Region
	parts   []Region
	code    Region

	// Per-phase sweep shape, identical for every thread and phase.
	stride        int64 // bytes between touches (at least one block)
	touches       int
	instrPerTouch int64
	sharedEvery   int // touches per shared read; 0 = none
}

// NewSciEngine builds a scientific workload instance.
func NewSciEngine(prof SciProfile, seed uint64) *SciEngine {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	e := &SciEngine{prof: prof}
	base := TableBase
	e.shared = Region{Base: base, Size: uint64(max(prof.SharedBytes, 64))}
	base += e.shared.Size
	for i := 0; i < prof.Threads; i++ {
		sz := uint64(max(prof.PartitionBytes, 64))
		e.parts = append(e.parts, Region{Base: base, Size: sz})
		base += sz
	}
	cs := uint64(prof.CodeBytes)
	if cs == 0 {
		cs = 128 << 10
	}
	e.code = Region{Base: CodeBase, Size: cs}

	// Compute interleaved with the sweep so misses spread through the
	// phase rather than bunching at its start.
	e.stride = max(prof.SweepStride, 64)
	e.touches = max(int(int64(e.parts[0].Size)/e.stride), 1)
	e.instrPerTouch = max(prof.InstrPerPhase/int64(e.touches), 1)
	if prof.SharedReads > 0 {
		e.sharedEvery = max(e.touches/prof.SharedReads, 1)
	}

	e.threads = make([]sciThread, prof.Threads)
	for i := range e.threads {
		e.threads[i] = sciThread{rng: rng.New(rng.Derive(seed, 0x2000+uint64(i)))}
	}
	return e
}

// Name implements Instance.
func (e *SciEngine) Name() string { return e.prof.Name }

// NumThreads implements Instance.
func (e *SciEngine) NumThreads() int { return e.prof.Threads }

// NumLocks implements Instance.
func (e *SciEngine) NumLocks() int { return 1 } // a global reduction lock

// NumSpinLocks implements Instance: the reduction lock is a spin latch.
func (e *SciEngine) NumSpinLocks() int { return 1 }

// NumBarriers implements Instance.
func (e *SciEngine) NumBarriers() int { return 1 }

// Next implements Instance.
func (e *SciEngine) Next(tid int) Op {
	t := &e.threads[tid]
	if t.pos >= t.n {
		if t.done {
			return Op{Kind: OpDone}
		}
		e.startPhase(tid)
	}
	if t.done {
		// Program end: thread 0 reports the single whole-program
		// "transaction"; everyone terminates.
		t.pos++
		if tid == 0 && t.pos == 1 {
			return Op{Kind: OpTxnEnd, PC: e.code.At(0)}
		}
		return Op{Kind: OpDone}
	}
	op := e.phaseOp(t, tid)
	op.PC = e.code.At(uint64((t.phase-1)%64)*256 + 4*uint64(t.pos))
	t.pos++
	return op
}

// Clone implements Instance. The draw slices are never written once a
// phase has started, so the clone shares them and copies only the
// thread cursors; Clone performs no writes on e.
func (e *SciEngine) Clone() Instance {
	cp := *e
	cp.threads = append([]sciThread(nil), e.threads...)
	return &cp
}

// startPhase begins thread tid's next barrier phase: it takes the
// phase's rng draws (write bits, shared-read Zipf offsets, back-edge
// outcomes, in the order the phase's ops use them) and counts its ops.
func (e *SciEngine) startPhase(tid int) {
	t := &e.threads[tid]
	p := e.prof
	t.pos, t.touch, t.step = 0, 0, 0
	t.write, t.taken, t.zipf = nil, nil, nil
	if t.phase >= p.Phases {
		t.n = 1 // OpDone
		if tid == 0 {
			t.n++ // OpTxnEnd
		}
		t.done = true
		return
	}
	write := make([]uint64, (e.touches+63)/64)
	taken := make([]uint64, (e.touches/4+63)/64)
	var zipf []uint64
	if e.sharedEvery > 0 {
		zipf = make([]uint64, 0, (e.touches+e.sharedEvery-1)/e.sharedEvery)
	}
	// Per touch: a load and a compute block, plus the optional ops
	// counted below; then the boundary loads and the four-op reduction.
	n := 2*e.touches + 2*p.BoundaryRows + 4
	blocks := int(e.shared.Size / 64)
	for i := 0; i < e.touches; i++ {
		if t.rng.Bool(p.WriteFrac) {
			write[i/64] |= 1 << (i % 64)
			n++
		}
		if e.sharedEvery > 0 && i%e.sharedEvery == 0 {
			zipf = append(zipf, uint64(t.rng.Zipf(blocks, p.SharedTheta))*64)
			n++
		}
		if i%4 == 3 {
			if t.rng.Bool(0.97) {
				taken[i/4/64] |= 1 << (i / 4 % 64)
			}
			n++
		}
	}
	t.write, t.taken, t.zipf, t.n = write, taken, zipf, n
	t.phase++
}

// phaseOp produces the op at thread tid's cursor (without its PC) and
// advances the cursor. A phase sweeps the thread's partition — each
// touch is a load, an optional store, an optional shared-structure
// read, a compute block and, every fourth touch, a loop back-edge —
// then reads its neighbours' edge blocks (Ocean-style boundary
// exchange) and ends with a reduction under the global lock and the
// barrier.
func (e *SciEngine) phaseOp(t *sciThread, tid int) Op {
	if i := t.touch; i < e.touches {
		for {
			step := t.step
			t.step++
			switch step {
			case 0:
				return Op{Kind: OpLoad, Addr: e.parts[tid].At(uint64(int64(i) * e.stride))}
			case 1:
				if t.write[i/64]&(1<<(i%64)) != 0 {
					return Op{Kind: OpStore, Addr: e.parts[tid].At(uint64(int64(i) * e.stride))}
				}
			case 2:
				if e.sharedEvery > 0 && i%e.sharedEvery == 0 {
					return Op{Kind: OpLoad, Addr: e.shared.At(t.zipf[i/e.sharedEvery])}
				}
			case 3:
				if i%4 != 3 {
					t.touch, t.step = i+1, 0
				}
				return Op{Kind: OpCompute, N: e.instrPerTouch}
			default:
				// Loop back-edges: highly predictable.
				t.touch, t.step = i+1, 0
				return Op{Kind: OpBranch, Site: uint32(0x4000 + i%128), Taken: t.taken[i/4/64]&(1<<(i/4%64)) != 0}
			}
		}
	}
	k := t.step
	t.step++
	rows := e.prof.BoundaryRows
	if k < 2*rows {
		bdry := uint64(k / 2)
		if k%2 == 0 {
			nb := e.parts[(tid+1)%e.prof.Threads]
			return Op{Kind: OpLoad, Addr: nb.At(bdry * 64)}
		}
		pv := e.parts[(tid+e.prof.Threads-1)%e.prof.Threads]
		return Op{Kind: OpLoad, Addr: pv.At(pv.Size - 64 - bdry*64)}
	}
	switch k - 2*rows {
	case 0:
		return Op{Kind: OpLockAcq, ID: 0, Addr: LockWordAddr(0)}
	case 1:
		return Op{Kind: OpStore, Addr: e.shared.At(0)}
	case 2:
		return Op{Kind: OpLockRel, ID: 0, Addr: LockWordAddr(0)}
	default:
		return Op{Kind: OpBarrier, ID: 0}
	}
}
