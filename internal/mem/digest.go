package mem

import "varsim/internal/digest"

// lineSig is line ln's contribution to the cache's XOR-fold signature:
// a well-mixed function of (way, tag, state, dirty). i is the line's
// set-major global index (see Cache.lineIndex) — the same index the
// flat pre-paging slab used, so paging the slab left every signature
// bit-for-bit unchanged. Invalid lines contribute 0, so an empty
// cache's signature is 0 and a line's insert/remove are exact XOR
// inverses. LRU is excluded on purpose — see the sig field's comment.
func (c *Cache) lineSig(i int, ln *line) uint64 {
	if ln.state() == Invalid {
		return 0
	}
	h := uint64(14695981039346656037)
	h = (h ^ uint64(i)) * 1099511628211
	h = (h ^ ln.tag) * 1099511628211
	b := uint64(0)
	if ln.dirty() {
		b = 1
	}
	h = (h ^ (uint64(ln.state())<<1 | b)) * 1099511628211
	return digest.Mix64(h)
}

// StateSig returns the cache's incremental state signature: equal for
// two caches iff (with overwhelming probability) they hold the same
// lines in the same ways with the same coherence states and dirtiness.
func (c *Cache) StateSig() uint64 { return c.sig }

// foldSig recomputes the signature from scratch — the ground truth the
// incremental sig must track; tests assert they agree after arbitrary
// operation sequences.
func (c *Cache) foldSig() uint64 {
	var sig uint64
	for p, pg := range c.pages {
		for j := range pg {
			sig ^= c.lineSig(c.lineIndex(p, j), &pg[j])
		}
	}
	return sig
}

// HashInto folds the node's three cache signatures into h.
func (n *NodeCaches) HashInto(h *digest.Hash) {
	h.U64(n.L1I.sig)
	h.U64(n.L1D.sig)
	h.U64(n.L2.sig)
}

// HashInto folds the full hierarchy state into h: every node's cache
// signatures plus the coherence traffic counters. The counters are not
// cache *state*, but any difference in them witnesses a trajectory
// fork, and including them catches divergence that line signatures
// alone would only surface at the next state-visible transition.
func (s *Snooper) HashInto(h *digest.Hash) {
	for _, n := range s.Nodes {
		n.HashInto(h)
	}
	h.U64(s.CacheToCache)
	h.U64(s.MemFetches)
	h.U64(s.Upgrades)
	h.U64(s.Invals)
	h.U64(s.Writebacks)
}
