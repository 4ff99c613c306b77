// Package mem models the cache hierarchy of the target system: per-node
// split L1 instruction/data caches and a unified L2, kept coherent with a
// MOSI invalidation-based snooping protocol (§3.2.1, §3.2.3 of the
// paper).
//
// The model is a timing/state model: it tracks tags, coherence states and
// LRU, not data contents. Coherence permission lives at the L2 (the
// snooping level); L1s track presence and dirtiness, with L1/L2
// inclusion maintained by invalidating L1 copies whenever their L2 line
// leaves the cache.
package mem

import (
	"fmt"

	"varsim/internal/config"
)

// State is a coherence state. The protocol in use (MOSI or MESI, see
// Snooper.Protocol) determines which subset appears: MOSI uses
// I/S/O/M, MESI uses I/S/E/M.
type State uint8

const (
	Invalid State = iota
	Shared
	Owned
	Modified
	Exclusive // MESI only: sole clean copy; silently upgradable to M
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Owned:
		return "O"
	case Modified:
		return "M"
	case Exclusive:
		return "E"
	}
	return "?"
}

// CanRead reports whether a local load may proceed in this state.
func (s State) CanRead() bool { return s != Invalid }

// CanWrite reports whether a local store may proceed in this state.
// Exclusive is writable via a silent E->M upgrade (no bus transaction);
// the cache model performs that transition at the access site.
func (s State) CanWrite() bool { return s == Modified || s == Exclusive }

// IsOwner reports whether this cache must respond with data to remote
// requests.
func (s State) IsOwner() bool { return s == Owned || s == Modified || s == Exclusive }

// line is one cache way, packed into 16 bytes so a 4-way set fits one
// 64-byte host cache line and every copy-on-write page copy moves half
// the bytes a padded struct would. meta holds the coherence state in
// bits 0-7, the L1 dirty flag in bit 8 and the last-touch LRU stamp
// (larger = more recent) in bits 16-63.
type line struct {
	tag  uint64 // block number (address >> blockBits), including set bits
	meta uint64
}

const (
	metaState  = 0xff
	metaDirty  = 1 << 8
	stampShift = 16
	// maxStamp is the largest LRU stamp the meta word can hold; the
	// cache panics rather than wrap past it (see Cache.tick).
	maxStamp = 1<<(64-stampShift) - 1
)

func (l *line) state() State { return State(l.meta & metaState) }
func (l *line) dirty() bool  { return l.meta&metaDirty != 0 }
func (l *line) lru() uint64  { return l.meta >> stampShift }

func (l *line) setState(s State)    { l.meta = l.meta&^metaState | uint64(s) }
func (l *line) setLRU(stamp uint64) { l.meta = l.meta&(1<<stampShift-1) | stamp<<stampShift }

// targetPageLines sizes copy-on-write pages: pages hold up to this many
// lines (~8 KiB of 16-byte lines), small enough that the first write
// after a branch copies little, large enough that the page table stays
// a few hundred entries for the biggest configured cache.
const targetPageLines = 512

// Cache is one set-associative cache array.
//
// The line slab is split into fixed-size pages of whole sets so that
// Clone can share pages copy-on-write: a clone copies the page table
// (O(pages) slice headers), not the lines, and the first mutation of a
// shared page copies just that page. Ownership is epoch-stamped:
// page p is writable iff pageEpoch[p] == epoch, and Freeze revokes
// every ownership at once by bumping epoch — O(1), no page scan.
type Cache struct {
	pages     [][]line // page p holds sets [p<<pageShift, (p+1)<<pageShift)
	pageEpoch []uint64 // epoch at which page p was last materialized
	epoch     uint64   // current ownership epoch; bumped by Freeze
	frozen    bool     // no page materialized since the last Freeze

	pageShift uint   // log2(sets per page)
	pageMask  uint64 // (sets per page) - 1
	pageLines int    // lines per page = (sets per page) * assoc

	assoc   int
	sets    int
	setMask uint64
	stamp   uint64 // last LRU stamp handed out; at most maxStamp

	// sig is an incremental XOR-fold over the valid lines' (way, tag,
	// state, dirty) tuples — the cache's contribution to interval state
	// digests. It is maintained at the state-changing sites (Fill,
	// SetState, SetDirty, Invalidate) so reading it is O(1) instead of
	// O(lines); an empty cache's sig is 0 because invalid lines
	// contribute nothing. LRU stamps and hit/miss counters are
	// deliberately excluded: a pure replacement-order difference is
	// detected at the next victim choice it changes, which keeps the
	// hot Probe path free of digest work.
	sig uint64

	// Statistics.
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// NewCache builds a cache from its configuration. The configuration must
// be valid (see config.CacheConfig.Validate).
func NewCache(cfg config.CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("mem: %v", err))
	}
	sets := cfg.Sets()
	// Largest power-of-two sets-per-page whose lines fit the target, so
	// a set never straddles a page and there are no partial pages
	// (sets is itself a power of two, enforced by Validate).
	pageSets := 1
	for pageSets < sets && pageSets*2*cfg.Assoc <= targetPageLines {
		pageSets *= 2
	}
	pageShift := uint(0)
	for 1<<pageShift != pageSets {
		pageShift++
	}
	npages := sets / pageSets
	c := &Cache{
		pages:     make([][]line, npages),
		pageEpoch: make([]uint64, npages),
		pageShift: pageShift,
		pageMask:  uint64(pageSets - 1),
		pageLines: pageSets * cfg.Assoc,
		assoc:     cfg.Assoc,
		sets:      sets,
		setMask:   uint64(sets - 1),
	}
	slab := make([]line, sets*cfg.Assoc)
	for p := range c.pages {
		c.pages[p] = slab[p*c.pageLines : (p+1)*c.pageLines : (p+1)*c.pageLines]
	}
	return c
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// locate maps block to its page index and the index of its set's first
// line within that page.
func (c *Cache) locate(block uint64) (p, base int) {
	set := block & c.setMask
	return int(set >> c.pageShift), int(set&c.pageMask) * c.assoc
}

// lineIndex is the global index of line j of page p in set-major order —
// identical to the index into the flat pre-paging slab, which keeps
// lineSig (and with it every recorded digest) byte-identical.
func (c *Cache) lineIndex(p, j int) int { return p*c.pageLines + j }

// ensureOwned materializes page p for writing: if the page is shared
// with an earlier snapshot generation it is copied first. This is the
// lazy write-fault path of copy-on-write branching; it is pure
// in-memory copying (no locks, no goroutines), so branch trajectories
// stay deterministic regardless of which sibling touches a page first.
func (c *Cache) ensureOwned(p int) []line {
	if c.pageEpoch[p] == c.epoch {
		// Owning any page implies a write since the last Freeze, so
		// frozen is already false here.
		return c.pages[p]
	}
	c.frozen = false
	np := make([]line, len(c.pages[p]))
	copy(np, c.pages[p])
	c.pages[p] = np
	c.pageEpoch[p] = c.epoch
	return np
}

// Freeze revokes the cache's ownership of every page, making it safe
// to share them with clones: the next write to any page copies it
// first. O(1) — ownership is epoch-stamped, so one counter bump
// invalidates all stamps at once.
func (c *Cache) Freeze() {
	if c.frozen {
		return
	}
	c.epoch++
	c.frozen = true
}

// find returns the page, page index and in-page index of block, or
// (nil, 0, -1) if absent. Read-only: callers that mutate the line must
// re-fetch the page via ensureOwned first.
func (c *Cache) find(block uint64) (pg []line, p, j int) {
	p, base := c.locate(block)
	pg = c.pages[p]
	for w := 0; w < c.assoc; w++ {
		ln := &pg[base+w]
		if ln.tag == block && ln.state() != Invalid {
			return pg, p, base + w
		}
	}
	return nil, 0, -1
}

// tick hands out the next LRU stamp. The stamp shares a 64-bit word
// with the line's state, leaving it 48 bits; at 2^48-1 the cache
// panics instead of wrapping, since a wrapped stamp would silently
// reorder LRU victims.
func (c *Cache) tick() uint64 {
	if c.stamp >= maxStamp {
		panic(fmt.Sprintf("mem: LRU stamp reached its 48-bit limit (%d)", c.stamp))
	}
	c.stamp++
	return c.stamp
}

// Probe looks up block. On a hit it refreshes LRU and returns the state;
// on a miss it returns Invalid. Hit/miss counters are updated. The LRU
// refresh is a write, so a hit on a shared page materializes it.
func (c *Cache) Probe(block uint64) State {
	if _, p, j := c.find(block); j >= 0 {
		stamp := c.tick()
		pg := c.ensureOwned(p)
		pg[j].setLRU(stamp)
		c.Hits++
		return pg[j].state()
	}
	c.Misses++
	return Invalid
}

// GetState returns the state of block without touching LRU or counters.
func (c *Cache) GetState(block uint64) State {
	if pg, _, j := c.find(block); j >= 0 {
		return pg[j].state()
	}
	return Invalid
}

// SetState changes the state of a resident block; it is a no-op if the
// block is absent (the caller may race with an eviction).
func (c *Cache) SetState(block uint64, s State) {
	if _, p, j := c.find(block); j >= 0 {
		pg := c.ensureOwned(p)
		c.sig ^= c.lineSig(c.lineIndex(p, j), &pg[j])
		if s == Invalid {
			pg[j] = line{}
			return
		}
		pg[j].setState(s)
		c.sig ^= c.lineSig(c.lineIndex(p, j), &pg[j])
	}
}

// SetDirty marks a resident block dirty (L1 bookkeeping).
func (c *Cache) SetDirty(block uint64) {
	if pg0, p, j := c.find(block); j >= 0 && !pg0[j].dirty() {
		pg := c.ensureOwned(p)
		c.sig ^= c.lineSig(c.lineIndex(p, j), &pg[j])
		pg[j].meta |= metaDirty
		c.sig ^= c.lineSig(c.lineIndex(p, j), &pg[j])
	}
}

// Victim describes a line displaced by Fill.
type Victim struct {
	Block uint64
	State State
	Dirty bool
}

// Fill inserts block with the given state, evicting the LRU way if the
// set is full. It returns the victim (ok=false if an invalid way was
// used). If the block is already resident its state is updated in place.
func (c *Cache) Fill(block uint64, s State) (v Victim, evicted bool) {
	if _, p, j := c.find(block); j >= 0 {
		stamp := c.tick()
		pg := c.ensureOwned(p)
		c.sig ^= c.lineSig(c.lineIndex(p, j), &pg[j])
		pg[j].setState(s)
		pg[j].setLRU(stamp)
		c.sig ^= c.lineSig(c.lineIndex(p, j), &pg[j])
		return Victim{}, false
	}
	p, base := c.locate(block)
	pg := c.pages[p]
	way := -1
	var oldest uint64 = ^uint64(0)
	for w := 0; w < c.assoc; w++ {
		ln := &pg[base+w]
		if ln.state() == Invalid {
			way = base + w
			evicted = false
			break
		}
		if lru := ln.lru(); lru < oldest {
			oldest = lru
			way = base + w
			evicted = true
		}
	}
	stamp := c.tick()
	pg = c.ensureOwned(p)
	if evicted {
		old := &pg[way]
		v = Victim{Block: old.tag, State: old.state(), Dirty: old.dirty()}
		c.Evictions++
		c.sig ^= c.lineSig(c.lineIndex(p, way), old)
	}
	pg[way] = line{tag: block, meta: uint64(s) | stamp<<stampShift}
	c.sig ^= c.lineSig(c.lineIndex(p, way), &pg[way])
	return v, evicted
}

// Invalidate removes block and returns its prior state and dirtiness.
func (c *Cache) Invalidate(block uint64) (prior State, dirty bool) {
	if _, p, j := c.find(block); j >= 0 {
		pg := c.ensureOwned(p)
		prior = pg[j].state()
		dirty = pg[j].dirty()
		c.sig ^= c.lineSig(c.lineIndex(p, j), &pg[j])
		pg[j] = line{}
	}
	return prior, dirty
}

// Clone returns a copy that shares every page with c copy-on-write:
// only the page table and ownership stamps are copied. Cloning freezes
// c if needed (a write); to snapshot one cache from several goroutines
// at once, Freeze it first — Clone on a frozen cache is read-only.
func (c *Cache) Clone() *Cache {
	c.Freeze()
	cp := *c
	cp.pages = make([][]line, len(c.pages))
	copy(cp.pages, c.pages)
	cp.pageEpoch = make([]uint64, len(c.pageEpoch))
	copy(cp.pageEpoch, c.pageEpoch)
	return &cp
}

// Materialize forces ownership of every page, copying any still shared
// with another snapshot generation — turning a copy-on-write clone into
// a full deep copy. Used to price lazy against eager copying; the
// simulation itself never needs it.
func (c *Cache) Materialize() {
	for p := range c.pages {
		c.ensureOwned(p)
	}
}

// lineAt returns a copy of the line at set-major global index i — the
// index into the flat pre-paging slab. For tests and foldSig.
func (c *Cache) lineAt(i int) line {
	return c.pages[i/c.pageLines][i%c.pageLines]
}

// Occupancy returns the fraction of ways holding valid lines, a cheap
// warm-up indicator used by tests.
func (c *Cache) Occupancy() float64 {
	n, total := 0, 0
	for _, pg := range c.pages {
		total += len(pg)
		for j := range pg {
			if pg[j].state() != Invalid {
				n++
			}
		}
	}
	return float64(n) / float64(total)
}
