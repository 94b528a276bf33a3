package service

import (
	"container/list"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync"
	"time"

	"dise"
)

// Store/admission failures are plain sentinel errors; http.go maps them to
// status codes with errors.Is, the same contract the dise kind sentinels
// follow.
var (
	// errSessionNotFound covers both a never-created ID and an evicted or
	// expired one — deliberately indistinguishable, so an evicted session
	// looks exactly like an unknown one (and one tenant cannot probe for
	// another tenant's session IDs).
	errSessionNotFound = errors.New("session not found")
	// errSessionCap reports the per-tenant session cap.
	errSessionCap = errors.New("tenant session cap reached")
)

// sessionEntry is one stored version-chain session.
type sessionEntry struct {
	id     string
	tenant string
	sess   *dise.Session
	// lastUsed drives both TTL expiry and LRU ordering; it moves on every
	// successful lookup.
	lastUsed time.Time
	elem     *list.Element
	// trieNodes/trieBytes cache the session's memo-trie usage, refreshed by
	// the handlers after each seed/advance (dise.Session.MemoUsage). Cached
	// here — not read from the session under st.mu — so the store's byte
	// accounting never nests the session mutex inside the store mutex.
	trieNodes int
	trieBytes int64
}

// StoreStats is the session store's observability block.
type StoreStats struct {
	// Occupancy is the number of live sessions; Tenants the number of
	// tenants holding at least one.
	Occupancy int `json:"occupancy"`
	Tenants   int `json:"tenants"`
	// Capacity echoes the configured bounds.
	Capacity          int `json:"capacity"`
	PerTenantCapacity int `json:"per_tenant_capacity"`
	// Created counts sessions ever admitted; Deleted explicit removals.
	Created int64 `json:"created"`
	Deleted int64 `json:"deleted"`
	// EvictedTTL counts sessions expired idle; EvictedLRU sessions pushed
	// out by newer ones at capacity; RejectedCap creations refused by the
	// per-tenant cap; EvictedBytes sessions pushed out by trie-byte
	// pressure (MaxTrieBytes).
	EvictedTTL   int64 `json:"evicted_ttl"`
	EvictedLRU   int64 `json:"evicted_lru"`
	RejectedCap  int64 `json:"rejected_cap"`
	EvictedBytes int64 `json:"evicted_bytes"`
	// TrieNodes/TrieBytes total the resident sessions' memo tries (cached
	// per entry, refreshed after each run); MaxTrieBytes echoes the global
	// trie-byte ceiling (0 = unbounded).
	TrieNodes    int64 `json:"trie_nodes"`
	TrieBytes    int64 `json:"trie_bytes"`
	MaxTrieBytes int64 `json:"max_trie_bytes"`
}

// sessionStore is the tenant-keyed session table: a map plus an LRU list
// (front = most recently used), a TTL on idle time, and a per-tenant count.
// The mutex guards only map/list bookkeeping — never an analysis; seeding a
// session (a full symbolic execution) runs outside the lock between reserve
// and commit.
type sessionStore struct {
	mu        sync.Mutex
	capacity  int
	perTenant int
	ttl       time.Duration
	now       func() time.Time
	// maxTrieBytes is the global ceiling on the resident sessions' summed
	// memo-trie bytes; when an update pushes the total past it, the store
	// evicts least-recently-used sessions (byte pressure, before rejecting
	// anything) until the total fits. 0 = unbounded.
	maxTrieBytes int64

	entries  map[string]*sessionEntry
	lru      *list.List // of *sessionEntry
	byTenant map[string]int

	trieNodesTotal, trieBytesTotal int64

	created, deleted         int64
	evictedTTL, evictedLRU   int64
	rejectedCap              int64
	evictedBytes             int64
	janitorStop, janitorDone chan struct{}
}

func newSessionStore(capacity, perTenant int, ttl time.Duration, maxTrieBytes int64, now func() time.Time) *sessionStore {
	return &sessionStore{
		capacity:     capacity,
		perTenant:    perTenant,
		ttl:          ttl,
		maxTrieBytes: maxTrieBytes,
		now:          now,
		entries:      make(map[string]*sessionEntry),
		lru:          list.New(),
		byTenant:     make(map[string]int),
	}
}

// startJanitor collects expired sessions every interval, so idle sessions
// are reclaimed even when no request ever touches the store again.
func (st *sessionStore) startJanitor(interval time.Duration) {
	st.janitorStop = make(chan struct{})
	st.janitorDone = make(chan struct{})
	go func() {
		defer close(st.janitorDone)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				st.mu.Lock()
				st.sweepLocked()
				st.mu.Unlock()
			case <-st.janitorStop:
				return
			}
		}
	}()
}

func (st *sessionStore) close() {
	if st.janitorStop != nil {
		close(st.janitorStop)
		<-st.janitorDone
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.entries = make(map[string]*sessionEntry)
	st.lru.Init()
	st.byTenant = make(map[string]int)
	st.trieNodesTotal = 0
	st.trieBytesTotal = 0
}

// sweepLocked drops every session idle past the TTL. The LRU list is in
// recency order, so expired entries cluster at the back: walk from the back
// and stop at the first live one.
func (st *sessionStore) sweepLocked() {
	cutoff := st.now().Add(-st.ttl)
	for {
		back := st.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*sessionEntry)
		if !e.lastUsed.Before(cutoff) {
			return
		}
		st.removeLocked(e)
		st.evictedTTL++
	}
}

func (st *sessionStore) removeLocked(e *sessionEntry) {
	delete(st.entries, e.id)
	st.lru.Remove(e.elem)
	st.trieNodesTotal -= int64(e.trieNodes)
	st.trieBytesTotal -= e.trieBytes
	if n := st.byTenant[e.tenant] - 1; n > 0 {
		st.byTenant[e.tenant] = n
	} else {
		delete(st.byTenant, e.tenant)
	}
}

// enforceTrieBytesLocked relieves trie-byte pressure: while the resident
// tries sum past the ceiling, the least-recently-used session is evicted —
// always keeping the most recent one, so the session that just ran (and was
// just touched to the front) survives even if it alone exceeds the ceiling.
func (st *sessionStore) enforceTrieBytesLocked() {
	//diselint:ignore interruptloop bounded: each iteration evicts one LRU entry
	for st.maxTrieBytes > 0 && st.trieBytesTotal > st.maxTrieBytes && st.lru.Len() > 1 {
		oldest := st.lru.Back().Value.(*sessionEntry)
		st.removeLocked(oldest)
		st.evictedBytes++
	}
}

// updateUsage refreshes one session's cached trie usage and re-enforces the
// global byte ceiling. The handlers call it after each seed/advance with
// usage they read outside the store lock; a stale call for an entry evicted
// in the meantime is a no-op.
func (st *sessionStore) updateUsage(e *sessionEntry, nodes int, bytes int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.entries[e.id] != e {
		return
	}
	st.trieNodesTotal += int64(nodes) - int64(e.trieNodes)
	st.trieBytesTotal += bytes - e.trieBytes
	e.trieNodes = nodes
	e.trieBytes = bytes
	st.enforceTrieBytesLocked()
}

// reserve claims a per-tenant slot before the expensive session seed runs.
// The caller must follow with exactly one commit (success) or unreserve
// (failure). Reserving up front keeps a burst of concurrent creations from
// overshooting the tenant cap while their seeds are still running.
func (st *sessionStore) reserve(tenant string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked()
	if st.byTenant[tenant] >= st.perTenant {
		st.rejectedCap++
		return errSessionCap
	}
	st.byTenant[tenant]++
	return nil
}

func (st *sessionStore) unreserve(tenant string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if n := st.byTenant[tenant] - 1; n > 0 {
		st.byTenant[tenant] = n
	} else {
		delete(st.byTenant, tenant)
	}
}

// commit stores a seeded session under a fresh ID, evicting the
// least-recently-used session if the store is at capacity. It consumes the
// caller's reservation.
func (st *sessionStore) commit(tenant string, sess *dise.Session) string {
	id := newSessionID()
	// Read the seeded trie's usage before taking the store lock (the
	// session has its own mutex; never nest it inside st.mu). Unit tests
	// commit placeholder entries with no session.
	var nodes int
	var bytes int64
	if sess != nil {
		nodes, bytes = sess.MemoUsage()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.lru.Len() >= st.capacity {
		oldest := st.lru.Back().Value.(*sessionEntry)
		st.removeLocked(oldest)
		st.evictedLRU++
	}
	e := &sessionEntry{
		id:        id,
		tenant:    tenant,
		sess:      sess,
		lastUsed:  st.now(),
		trieNodes: nodes,
		trieBytes: bytes,
	}
	e.elem = st.lru.PushFront(e)
	st.entries[id] = e
	st.trieNodesTotal += int64(nodes)
	st.trieBytesTotal += bytes
	st.created++
	st.enforceTrieBytesLocked()
	return id
}

// get looks a session up by ID for the given tenant, enforcing TTL lazily
// and touching the LRU order. A tenant mismatch reports not-found, never
// "exists but not yours".
func (st *sessionStore) get(id, tenant string) (*sessionEntry, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[id]
	if !ok || e.tenant != tenant {
		return nil, errSessionNotFound
	}
	if e.lastUsed.Before(st.now().Add(-st.ttl)) {
		st.removeLocked(e)
		st.evictedTTL++
		return nil, errSessionNotFound
	}
	e.lastUsed = st.now()
	st.lru.MoveToFront(e.elem)
	return e, nil
}

// remove deletes a session explicitly (DELETE /v1/sessions/{id}).
func (st *sessionStore) remove(id, tenant string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[id]
	if !ok || e.tenant != tenant {
		return errSessionNotFound
	}
	st.removeLocked(e)
	st.deleted++
	return nil
}

func (st *sessionStore) stats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return StoreStats{
		Occupancy:         st.lru.Len(),
		Tenants:           len(st.byTenant),
		Capacity:          st.capacity,
		PerTenantCapacity: st.perTenant,
		Created:           st.created,
		Deleted:           st.deleted,
		EvictedTTL:        st.evictedTTL,
		EvictedLRU:        st.evictedLRU,
		RejectedCap:       st.rejectedCap,
		EvictedBytes:      st.evictedBytes,
		TrieNodes:         st.trieNodesTotal,
		TrieBytes:         st.trieBytesTotal,
		MaxTrieBytes:      st.maxTrieBytes,
	}
}

// newSessionID returns a 128-bit random hex ID.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("service: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}
