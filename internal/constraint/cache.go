package constraint

import (
	"container/list"
	"hash/fnv"
	"sync"

	"dise/internal/solver"
	"dise/internal/sym"
)

// prefixKey identifies one assertion-stack prefix. It is a chained pair of
// independently mixed 64-bit hashes over the asserted constraints (seeded
// with a digest of the input domains), so two engines asserting the same
// constraints over the same domains — sibling states of one exploration,
// two batch workers analyzing variants of one base program, or consecutive
// steps of a version-chain session — compute the same key. 128 bits make an
// accidental collision (which would return a wrong verdict) negligible.
//
// Constraints enter the chain as their structural fingerprints
// (sym.Fingerprints — precomputed field reads on hash-consed expressions),
// not as rendered strings: extending the key is a handful of multiplies
// instead of a rendering pass plus a byte-wise FNV walk, and structurally
// distinct constraints that happen to render alike can no longer share an
// entry. Each key half chains one of the expression's two independent
// fingerprints, so a full key collision requires two independent 64-bit
// hash functions to collide on the same pair — the ~2^-128 bound the
// 128-bit key is meant to provide, not merely ~2^-64.
type prefixKey struct {
	h1, h2 uint64
}

// extendFP chains the key with one asserted constraint's pair of structural
// fingerprints, one per half, through sym's two independent full-avalanche
// finalizers (splitmix64 for h1, murmur3 for h2 — so the halves never
// collapse into functions of each other).
func (k prefixKey) extendFP(fp1, fp2 uint64) prefixKey {
	return prefixKey{h1: sym.Mix64(k.h1 ^ fp1), h2: sym.MixAlt(k.h2 + fp2*0x9e3779b97f4a7c15)}
}

// extend chains the key with one more string-keyed component (the domain
// digest seed and native bitvector assertions, which have no sym
// fingerprint).
func (k prefixKey) extend(s string) prefixKey {
	a := fnv.New64a()
	writeU64(a, k.h1)
	a.Write([]byte(s))
	b := fnv.New64a()
	b.Write([]byte(s)) // different operand order decorrelates the halves
	writeU64(b, k.h2)
	return prefixKey{h1: a.Sum64(), h2: b.Sum64()}
}

func writeU64(h interface{ Write([]byte) (int, error) }, v uint64) {
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
}

// prefixEntry is the cached outcome of solving one stack prefix. Both the
// result model and the box are treated as immutable by every reader: they
// may be shared concurrently across backends.
type prefixEntry struct {
	// res is the verdict for the prefix conjunction, nil when only the box
	// is known. Unknown results are never cached: they depend on the
	// caller's budget and on interrupt timing.
	res *Result
	// box is the propagation state snapshot: the input domains tightened to
	// bounds consistency under the prefix. A child Check starts from the
	// box instead of re-propagating the whole prefix.
	box *solver.Box
	// residual lists the prefix atoms the box does not entail — the only
	// constraints a search within the box still has to enforce.
	residual []sym.Expr
}

// PrefixCache is a bounded, concurrency-safe LRU of solved assertion-stack
// prefixes, shared across the backend instances of concurrent engines
// (e.g. the worker pool of AnalyzeBatch). It is the cross-engine half of
// the incremental machinery: within one engine the frame stack carries
// solver state down the tree, and the cache carries it across pop/re-push
// boundaries and across engines.
//
// The keys are content, not provenance: a chained digest of the input
// domains and the asserted constraints' structural fingerprints, with no
// program-version component. Entries therefore also survive across the
// steps of a version-chain session (dise.Session) — two versions of a
// program asserting the same constraint sequence over the same domains
// compute the same key, so live re-solves in step N hit prefixes solved in
// step N-1 even in regions the execution-tree memo had to invalidate.
type PrefixCache struct {
	mu       sync.Mutex
	capacity int
	// maxBytes, when > 0, additionally bounds the cache by the approximate
	// retained bytes of its entries (bytes tracks the current total) — the
	// service-scale bound, where what matters is heap footprint rather than
	// entry count.
	maxBytes  int64
	bytes     int64
	entries   map[prefixKey]*list.Element
	lru       *list.List // of *prefixSlot, front = most recent
	hits      int64
	misses    int64
	evictions int64
}

type prefixSlot struct {
	key  prefixKey
	ent  prefixEntry
	size int64
}

// Approximate per-entry byte costs for the byte bound: the slot with its
// map/list bookkeeping, one box interval, one residual pointer, one model
// entry. Expressions referenced by residual atoms are hash-consed and
// accounted by the intern table, not here.
const (
	prefixSlotBaseBytes = 192
	boxEntryBytes       = 64
	residualAtomBytes   = 16
)

// approxEntryBytes estimates one entry's retained footprint.
func approxEntryBytes(ent prefixEntry) int64 {
	b := int64(prefixSlotBaseBytes)
	b += int64(ent.box.Len()) * boxEntryBytes
	b += int64(len(ent.residual)) * residualAtomBytes
	if ent.res != nil {
		b += 64 + int64(ent.res.Model.Len())*40
	}
	return b
}

// DefaultPrefixCacheCapacity bounds a cache constructed with capacity 0.
const DefaultPrefixCacheCapacity = 8192

// NewPrefixCache returns a cache holding at most capacity prefixes
// (DefaultPrefixCacheCapacity when capacity <= 0), with no byte bound.
func NewPrefixCache(capacity int) *PrefixCache {
	return NewPrefixCacheBytes(capacity, 0)
}

// NewPrefixCacheBytes is NewPrefixCache with an additional approximate byte
// budget: when maxBytes > 0, inserting past it evicts least-recently-used
// entries until the estimate fits again (the most recent entry always
// stays, so one oversized entry cannot empty the cache). maxBytes <= 0
// disables the byte bound.
func NewPrefixCacheBytes(capacity int, maxBytes int64) *PrefixCache {
	if capacity <= 0 {
		capacity = DefaultPrefixCacheCapacity
	}
	return &PrefixCache{
		capacity: capacity,
		maxBytes: maxBytes,
		entries:  map[prefixKey]*list.Element{},
		lru:      list.New(),
	}
}

// get returns the cached entry for key, if present.
func (c *PrefixCache) get(key prefixKey) (prefixEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		return el.Value.(*prefixSlot).ent, true
	}
	c.misses++
	return prefixEntry{}, false
}

// put stores (or upgrades) the entry for key. An existing entry is only
// replaced when the new one knows more (a verdict where the old had only a
// box), so a box-only writer never erases a verdict.
func (c *PrefixCache) put(key prefixKey, ent prefixEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		slot := el.Value.(*prefixSlot)
		if ent.res != nil || slot.ent.res == nil {
			slot.ent = ent
			size := approxEntryBytes(ent)
			c.bytes += size - slot.size
			slot.size = size
		}
		c.lru.MoveToFront(el)
		return
	}
	slot := &prefixSlot{key: key, ent: ent, size: approxEntryBytes(ent)}
	c.entries[key] = c.lru.PushFront(slot)
	c.bytes += slot.size
	//diselint:ignore interruptloop bounded: each iteration evicts one LRU entry
	for c.lru.Len() > c.capacity || (c.maxBytes > 0 && c.bytes > c.maxBytes && c.lru.Len() > 1) {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		old := oldest.Value.(*prefixSlot)
		delete(c.entries, old.key)
		c.bytes -= old.size
		c.evictions++
	}
}

// CacheStats reports the effectiveness and footprint of a PrefixCache.
// Bytes is the approximate retained size of the live entries; Evictions
// counts entries pushed out by either bound, cumulatively.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Entries   int
	Bytes     int64
	Evictions int64
}

// Stats snapshots hit/miss counters.
func (c *PrefixCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.lru.Len(), Bytes: c.bytes, Evictions: c.evictions}
}
