package dise

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"dise/internal/cfg"
	"dise/internal/lang/ast"
	"dise/internal/lang/parser"
	"dise/internal/lang/types"
)

// cachedProgram is an immutable parse + type-check bundle for one source
// text, with per-procedure CFGs built (and their analyses precomputed) on
// first use. Everything reachable from it is read-only after construction,
// so one entry can serve concurrent analyses — the point of the cache in the
// one-base-many-patches CI workload.
type cachedProgram struct {
	prog *ast.Program

	mu     sync.Mutex
	graphs map[string]*cfg.Graph
}

// graph returns the procedure's CFG, building and precomputing it once.
// Precomputing the reachability/post-dominance/SCC analyses up front means
// later readers never write to the graph, making it safe to share across
// the batch worker pool.
func (c *cachedProgram) graph(proc *ast.Procedure) *cfg.Graph {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.graphs[proc.Name]; ok {
		return g
	}
	g := cfg.Build(proc)
	g.Precompute()
	c.graphs[proc.Name] = g
	return g
}

// CacheStats reports the effectiveness and footprint of an Analyzer's
// parse/CFG cache. Bytes is an approximate retained size (a documented
// multiple of the cached source lengths — the AST, type info and CFGs scale
// with the source); Evictions counts entries pushed out by either bound.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes_approx"`
	Evictions int64 `json:"evictions"`
}

// programCache is a bounded, concurrency-safe LRU of parsed programs keyed
// by the SHA-256 of their source text. The entry-count capacity always
// applies; an approximate byte budget (maxBytes > 0) additionally evicts
// least-recently-used entries when the estimated retained size overflows.
type programCache struct {
	mu        sync.Mutex
	capacity  int
	maxBytes  int64
	bytes     int64
	entries   map[[sha256.Size]byte]*list.Element
	lru       *list.List // of *cacheSlot, front = most recent
	hits      int64
	misses    int64
	evictions int64
}

type cacheSlot struct {
	key  [sha256.Size]byte
	prog *cachedProgram
	size int64
}

// programEntryBytes estimates one entry's retained footprint from its
// source length: the AST, type-check results and per-procedure CFGs with
// their precomputed analyses together run roughly an order of magnitude
// larger than the text, plus a fixed overhead for the maps and slot. A
// coarse, deliberately conservative multiplier for capacity accounting.
func programEntryBytes(srcLen int) int64 {
	return int64(srcLen)*16 + 4096
}

func newProgramCache(capacity int, maxBytes int64) *programCache {
	return &programCache{
		capacity: capacity,
		maxBytes: maxBytes,
		entries:  map[[sha256.Size]byte]*list.Element{},
		lru:      list.New(),
	}
}

// get returns the cached bundle for src, parsing and type-checking on a
// miss. Parse and type failures are classified (ParseError/TypeError) and
// never cached: source that fails today may be retried cheaply, and failed
// requests should not evict useful entries.
func (pc *programCache) get(src string) (*cachedProgram, error) {
	key := sha256.Sum256([]byte(src))
	pc.mu.Lock()
	if el, ok := pc.entries[key]; ok {
		pc.lru.MoveToFront(el)
		pc.hits++
		entry := el.Value.(*cacheSlot).prog
		pc.mu.Unlock()
		return entry, nil
	}
	pc.misses++
	pc.mu.Unlock()

	// Parse outside the lock: concurrent misses on the same source duplicate
	// work at most once each, which beats serializing every request behind
	// one parse.
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, &Error{Kind: ParseError, Err: err}
	}
	if _, err := types.Check(prog); err != nil {
		return nil, &Error{Kind: TypeError, Err: err}
	}
	entry := &cachedProgram{prog: prog, graphs: map[string]*cfg.Graph{}}

	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[key]; ok {
		// A concurrent request inserted it first; keep that copy so everyone
		// shares one AST.
		pc.lru.MoveToFront(el)
		return el.Value.(*cacheSlot).prog, nil
	}
	slot := &cacheSlot{key: key, prog: entry, size: programEntryBytes(len(src))}
	pc.entries[key] = pc.lru.PushFront(slot)
	pc.bytes += slot.size
	//diselint:ignore interruptloop bounded: each iteration evicts one LRU entry
	for (pc.capacity > 0 && pc.lru.Len() > pc.capacity) ||
		(pc.maxBytes > 0 && pc.bytes > pc.maxBytes && pc.lru.Len() > 1) {
		oldest := pc.lru.Back()
		pc.lru.Remove(oldest)
		old := oldest.Value.(*cacheSlot)
		delete(pc.entries, old.key)
		pc.bytes -= old.size
		pc.evictions++
	}
	return entry, nil
}

// stats snapshots hit/miss counters.
func (pc *programCache) stats() CacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return CacheStats{Hits: pc.hits, Misses: pc.misses, Entries: pc.lru.Len(), Bytes: pc.bytes, Evictions: pc.evictions}
}
