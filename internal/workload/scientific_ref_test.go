package workload

import (
	"varsim/internal/digest"
	"varsim/internal/rng"
)

// refSci is the materialising scientific engine the streamed SciEngine
// replaced: each barrier phase is expanded into a whole op slice up
// front. It is kept here, in tests only, as the reference the streamed
// cursor must reproduce op for op and digest for digest.
type refSci struct {
	prof    SciProfile
	threads []refSciThread
	shared  Region
	parts   []Region
	code    Region
}

type refSciThread struct {
	rng   rng.Stream
	ops   []Op
	pos   int
	phase int
	done  bool
}

func newRefSci(prof SciProfile, seed uint64) *refSci {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	e := &refSci{prof: prof}
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
	e.threads = make([]refSciThread, prof.Threads)
	for i := range e.threads {
		e.threads[i] = refSciThread{rng: rng.New(rng.Derive(seed, 0x2000+uint64(i)))}
	}
	return e
}

func (e *refSci) Next(tid int) Op {
	t := &e.threads[tid]
	for t.pos >= len(t.ops) {
		if t.done {
			return Op{Kind: OpDone}
		}
		e.buildPhase(tid)
	}
	op := t.ops[t.pos]
	t.pos++
	return op
}

// clone deep-copies the engine, op buffers included.
func (e *refSci) clone() *refSci {
	cp := *e
	cp.threads = append([]refSciThread(nil), e.threads...)
	for i := range cp.threads {
		cp.threads[i].ops = append([]Op(nil), e.threads[i].ops...)
	}
	return &cp
}

func (e *refSci) HashProgress(h *digest.Hash) {
	for i := range e.threads {
		t := &e.threads[i]
		h.U64(t.rng.Digest())
		h.I64(int64(t.pos))
		h.I64(int64(len(t.ops)))
		h.I64(int64(t.phase))
		h.Bool(t.done)
	}
}

// buildPhase expands one barrier phase for thread tid.
func (e *refSci) buildPhase(tid int) {
	t := &e.threads[tid]
	t.ops = t.ops[:0]
	t.pos = 0
	p := e.prof

	if t.phase >= p.Phases {
		if tid == 0 {
			t.ops = append(t.ops, Op{Kind: OpTxnEnd, PC: e.code.At(0)})
		}
		t.ops = append(t.ops, Op{Kind: OpDone})
		t.done = true
		return
	}

	part := e.parts[tid]
	pc := uint64(t.phase%64) * 256
	emit := func(op Op) {
		op.PC = e.code.At(pc)
		t.ops = append(t.ops, op)
		pc += 4
	}

	stride := p.SweepStride
	if stride < 64 {
		stride = 64
	}
	touches := int(int64(part.Size) / stride)
	if touches < 1 {
		touches = 1
	}
	instrPerTouch := p.InstrPerPhase / int64(touches)
	if instrPerTouch < 1 {
		instrPerTouch = 1
	}
	sharedEvery := 0
	if p.SharedReads > 0 {
		sharedEvery = max(touches/p.SharedReads, 1)
	}
	for i := 0; i < touches; i++ {
		addr := part.At(uint64(int64(i) * stride))
		emit(Op{Kind: OpLoad, Addr: addr})
		if t.rng.Bool(p.WriteFrac) {
			emit(Op{Kind: OpStore, Addr: addr})
		}
		if sharedEvery > 0 && i%sharedEvery == 0 {
			soff := uint64(t.rng.Zipf(int(e.shared.Size/64), p.SharedTheta)) * 64
			emit(Op{Kind: OpLoad, Addr: e.shared.At(soff)})
		}
		emit(Op{Kind: OpCompute, N: instrPerTouch})
		if i%4 == 3 {
			site := uint32(0x4000 + i%128)
			emit(Op{Kind: OpBranch, Site: site, Taken: t.rng.Bool(0.97)})
		}
	}
	for bdry := 0; bdry < p.BoundaryRows; bdry++ {
		nb := e.parts[(tid+1)%p.Threads]
		emit(Op{Kind: OpLoad, Addr: nb.At(uint64(bdry) * 64)})
		pv := e.parts[(tid+p.Threads-1)%p.Threads]
		emit(Op{Kind: OpLoad, Addr: pv.At(pv.Size - 64 - uint64(bdry)*64)})
	}
	emit(Op{Kind: OpLockAcq, ID: 0, Addr: LockWordAddr(0)})
	emit(Op{Kind: OpStore, Addr: e.shared.At(0)})
	emit(Op{Kind: OpLockRel, ID: 0, Addr: LockWordAddr(0)})
	emit(Op{Kind: OpBarrier, ID: 0})
	t.phase++
}
