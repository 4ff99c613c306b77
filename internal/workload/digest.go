package workload

import "varsim/internal/digest"

// HashProgress implements Hasher: the shared feed position and log
// head (the timing-dependent work assignment the engine exists to
// model), plus each thread's generator state and op-buffer cursor.
// Buffered ops are summarized by count rather than folded — their
// contents are a pure function of (rng state before the build, feed
// index), both of which are already digested.
func (e *TxnEngine) HashProgress(h *digest.Hash) {
	h.I64(e.feed)
	h.U64(e.logHead)
	for i := range e.threads {
		t := &e.threads[i]
		h.U64(t.rng.Digest())
		h.I64(int64(t.pos))
		h.I64(int64(len(t.ops)))
		h.U64(t.poff)
	}
}

// HashProgress implements Hasher: per-thread phase progress and
// generator state. The phase's op count is hashed where an engine that
// materialised the phase would hash its op list's length, so a digest
// does not depend on how the phase's ops are produced.
func (e *SciEngine) HashProgress(h *digest.Hash) {
	for i := range e.threads {
		t := &e.threads[i]
		h.U64(t.rng.Digest())
		h.I64(int64(t.pos))
		h.I64(int64(t.n))
		h.I64(int64(t.phase))
		h.Bool(t.done)
	}
}
