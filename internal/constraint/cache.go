package constraint

import (
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
// digest seed and a backend name, which have no sym fingerprint).
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
	maxBytes int64
	bytes    int64
	// entries indexes slots by key. chunks is the arena of slots the LRU
	// list runs through by index (head = most recent, tail = least recent,
	// -1 when empty), grown a fixed-size chunk at a time so no slot is ever
	// copied, and free chains the slots evictions emptied, so an insert
	// reuses a slot instead of allocating one.
	entries    map[prefixKey]int32
	chunks     [][]prefixSlot
	used       int32 // slots handed out of chunks so far
	head, tail int32
	free       int32
	hits       int64
	misses     int64
	evictions  int64
}

// slotChunkLen is the number of slots per arena chunk (a power of two).
const slotChunkLen = 256

type prefixSlot struct {
	key        prefixKey
	ent        prefixEntry
	size       int64
	prev, next int32 // LRU neighbours (toward head, toward tail); next chains the free list
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
		entries:  map[prefixKey]int32{},
		head:     -1,
		tail:     -1,
		free:     -1,
	}
}

// slot returns slot i of the arena.
func (c *PrefixCache) slot(i int32) *prefixSlot {
	return &c.chunks[i/slotChunkLen][i%slotChunkLen]
}

// unlink takes slot i out of the LRU list.
func (c *PrefixCache) unlink(i int32) {
	sl := c.slot(i)
	if sl.prev >= 0 {
		c.slot(sl.prev).next = sl.next
	} else {
		c.head = sl.next
	}
	if sl.next >= 0 {
		c.slot(sl.next).prev = sl.prev
	} else {
		c.tail = sl.prev
	}
}

// pushFront makes slot i the most recently used.
func (c *PrefixCache) pushFront(i int32) {
	sl := c.slot(i)
	sl.prev, sl.next = -1, c.head
	if c.head >= 0 {
		c.slot(c.head).prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// touch moves slot i to the front of the LRU list.
func (c *PrefixCache) touch(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// get returns the cached entry for key, if present.
func (c *PrefixCache) get(key prefixKey) (prefixEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.entries[key]; ok {
		c.touch(i)
		c.hits++
		return c.slot(i).ent, true
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
	if i, ok := c.entries[key]; ok {
		sl := c.slot(i)
		if ent.res != nil || sl.ent.res == nil {
			sl.ent = ent
			size := approxEntryBytes(ent)
			c.bytes += size - sl.size
			sl.size = size
		}
		c.touch(i)
		return
	}
	i := c.free
	if i >= 0 {
		c.free = c.slot(i).next
	} else {
		if c.used%slotChunkLen == 0 {
			c.chunks = append(c.chunks, make([]prefixSlot, slotChunkLen))
		}
		i = c.used
		c.used++
	}
	sl := c.slot(i)
	*sl = prefixSlot{key: key, ent: ent, size: approxEntryBytes(ent)}
	c.pushFront(i)
	c.entries[key] = i
	c.bytes += sl.size
	//diselint:ignore interruptloop bounded: each iteration evicts one LRU entry
	for len(c.entries) > c.capacity || (c.maxBytes > 0 && c.bytes > c.maxBytes && len(c.entries) > 1) {
		old := c.tail
		c.unlink(old)
		sl := c.slot(old)
		delete(c.entries, sl.key)
		c.bytes -= sl.size
		c.evictions++
		// Drop the entry's references and chain the slot for reuse.
		*sl = prefixSlot{next: c.free}
		c.free = old
	}
}

// CacheStats reports the effectiveness and footprint of a bounded LRU
// cache: a PrefixCache, and the dise facade's parse/CFG cache, which
// declares it as dise.CacheStats. Bytes is the approximate retained size of
// the live entries; Evictions counts entries pushed out by either bound,
// cumulatively. The JSON tags are the wire format of the service's
// parse_cache and prefix_cache blocks.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes_approx"`
	Evictions int64 `json:"evictions"`
}

// Stats snapshots hit/miss counters.
func (c *PrefixCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries), Bytes: c.bytes, Evictions: c.evictions}
}
