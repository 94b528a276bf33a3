package dise

import (
	"container/list"
	"crypto/sha256"
	"errors"
	"sync"

	"dise/internal/cfg"
	"dise/internal/constraint"
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
// parse/CFG cache and of its shared solved-prefix cache. For the parse
// cache, Bytes is an approximate retained size (a documented multiple of
// the cached source lengths — the AST, type info and CFGs scale with the
// source); Evictions counts entries pushed out by either bound. It is the
// constraint package's cache counter set itself, JSON tags included.
type CacheStats = constraint.CacheStats

// programCache is a bounded, concurrency-safe LRU of parsed programs keyed
// by the SHA-256 of their source text. The entry-count capacity always
// applies; an approximate byte budget (maxBytes > 0) additionally evicts
// least-recently-used entries when the estimated retained size overflows.
type programCache struct {
	mu       sync.Mutex
	capacity int
	maxBytes int64
	bytes    int64
	entries  map[[sha256.Size]byte]*list.Element
	lru      *list.List // of *cacheSlot, front = most recent
	// pending holds the misses being parsed, by key: a request for a source
	// another request is already parsing waits for that parse.
	pending   map[[sha256.Size]byte]*pendingParse
	hits      int64
	misses    int64
	evictions int64
}

// pendingParse is one in-flight miss. done closes when entry or err is set.
type pendingParse struct {
	done  chan struct{}
	entry *cachedProgram
	err   error
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
		pending:  map[[sha256.Size]byte]*pendingParse{},
	}
}

// get returns the cached bundle for src, parsing and type-checking on a
// miss. Misses are single-flight: the first request for a source parses it,
// and concurrent requests for the same source wait for that parse and count
// as hits, so a batch whose workers all start on one base version parses it
// once. Parse and type failures are classified (ParseError/TypeError),
// reach every waiting request, and are never cached: source that fails
// today may be retried cheaply, and failed requests should not evict
// useful entries.
func (pc *programCache) get(src string) (*cachedProgram, error) {
	key := sha256.Sum256([]byte(src))
	entry, p, owner := pc.claim(key)
	switch {
	case entry != nil:
		return entry, nil
	case !owner:
		<-p.done
		return p.entry, p.err
	}
	// Whatever happens in the parse (a panic included), the waiters are
	// released and the key stops being pending.
	defer close(p.done)
	defer func() {
		pc.mu.Lock()
		defer pc.mu.Unlock()
		delete(pc.pending, key)
		if p.err == nil {
			pc.insert(key, p.entry, len(src))
		}
	}()
	// Parse outside the lock, so requests for other sources proceed.
	p.entry, p.err = parseProgram(src)
	return p.entry, p.err
}

// claim looks key up: it returns the cached entry on a hit; otherwise the
// in-flight parse to wait for (owner false, counted as a hit), or a new
// pending parse the caller must complete (owner true, counted as a miss).
func (pc *programCache) claim(key [sha256.Size]byte) (entry *cachedProgram, p *pendingParse, owner bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[key]; ok {
		pc.lru.MoveToFront(el)
		pc.hits++
		return el.Value.(*cacheSlot).prog, nil, false
	}
	if p, ok := pc.pending[key]; ok {
		pc.hits++
		return nil, p, false
	}
	pc.misses++
	p = &pendingParse{done: make(chan struct{}), err: errParsePanicked}
	pc.pending[key] = p
	return nil, p, true
}

// errParsePanicked is what requests waiting on a parse receive when it
// panicked instead of returning.
var errParsePanicked = &Error{Kind: ParseError, Err: errors.New("parsing the source panicked")}

// parseProgram parses and type-checks one source text.
func parseProgram(src string) (*cachedProgram, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, &Error{Kind: ParseError, Err: err}
	}
	if _, err := types.Check(prog); err != nil {
		return nil, &Error{Kind: TypeError, Err: err}
	}
	return &cachedProgram{prog: prog, graphs: map[string]*cfg.Graph{}}, nil
}

// insert adds a freshly parsed entry and evicts least-recently-used
// entries past either bound. The caller holds pc.mu.
func (pc *programCache) insert(key [sha256.Size]byte, entry *cachedProgram, srcLen int) {
	slot := &cacheSlot{key: key, prog: entry, size: programEntryBytes(srcLen)}
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
}

// stats snapshots hit/miss counters.
func (pc *programCache) stats() CacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return CacheStats{Hits: pc.hits, Misses: pc.misses, Entries: pc.lru.Len(), Bytes: pc.bytes, Evictions: pc.evictions}
}
