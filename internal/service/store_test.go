package service

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// addSession reserves and commits one (nil-session) entry.
func addSession(t *testing.T, st *sessionStore, tenant string) string {
	t.Helper()
	if err := st.reserve(tenant); err != nil {
		t.Fatalf("reserve(%s): %v", tenant, err)
	}
	return st.commit(tenant, nil)
}

func TestStoreTTLEviction(t *testing.T) {
	clock := newFakeClock()
	st := newSessionStore(10, 10, time.Minute, 0, clock.now)

	idA := addSession(t, st, "a")
	clock.advance(30 * time.Second)
	idB := addSession(t, st, "a")

	// A lookup refreshes idB's idle timer; idA's keeps aging.
	clock.advance(20 * time.Second)
	if _, err := st.get(idB, "a"); err != nil {
		t.Fatalf("get(idB) before expiry: %v", err)
	}

	clock.advance(50 * time.Second) // idA idle 100s > TTL, idB idle 50s < TTL
	if _, err := st.get(idA, "a"); !errors.Is(err, errSessionNotFound) {
		t.Fatalf("get(idA) after TTL: err = %v, want errSessionNotFound", err)
	}
	if _, err := st.get(idB, "a"); err != nil {
		t.Fatalf("get(idB) still live: %v", err)
	}

	s := st.stats()
	if s.EvictedTTL != 1 || s.Occupancy != 1 {
		t.Fatalf("stats after lazy TTL eviction: %+v", s)
	}

	// The sweep (what the janitor runs) collects without any access.
	clock.advance(2 * time.Minute)
	st.mu.Lock()
	st.sweepLocked()
	st.mu.Unlock()
	s = st.stats()
	if s.EvictedTTL != 2 || s.Occupancy != 0 || s.Tenants != 0 {
		t.Fatalf("stats after sweep: %+v", s)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	clock := newFakeClock()
	st := newSessionStore(2, 10, time.Hour, 0, clock.now)

	id1 := addSession(t, st, "a")
	clock.advance(time.Second)
	id2 := addSession(t, st, "a")
	clock.advance(time.Second)

	// Touch id1 so id2 becomes the LRU victim.
	if _, err := st.get(id1, "a"); err != nil {
		t.Fatal(err)
	}
	id3 := addSession(t, st, "b")

	if _, err := st.get(id2, "a"); !errors.Is(err, errSessionNotFound) {
		t.Fatalf("LRU victim id2 still resolvable: err = %v", err)
	}
	for _, id := range []struct{ id, tenant string }{{id1, "a"}, {id3, "b"}} {
		if _, err := st.get(id.id, id.tenant); err != nil {
			t.Fatalf("get(%s): %v", id.id, err)
		}
	}
	s := st.stats()
	if s.EvictedLRU != 1 || s.Occupancy != 2 {
		t.Fatalf("stats after LRU eviction: %+v", s)
	}
}

func TestStorePerTenantCap(t *testing.T) {
	clock := newFakeClock()
	st := newSessionStore(100, 2, time.Hour, 0, clock.now)

	addSession(t, st, "a")
	addSession(t, st, "a")
	if err := st.reserve("a"); !errors.Is(err, errSessionCap) {
		t.Fatalf("third reserve for tenant a: err = %v, want errSessionCap", err)
	}
	// Other tenants are unaffected, and an aborted reservation releases the
	// slot.
	if err := st.reserve("b"); err != nil {
		t.Fatalf("reserve(b): %v", err)
	}
	st.unreserve("b")
	if st.stats().RejectedCap != 1 {
		t.Fatalf("stats: %+v", st.stats())
	}

	// Deleting one of a's sessions frees its cap slot.
	st.mu.Lock()
	var victim string
	for id, e := range st.entries {
		if e.tenant == "a" {
			victim = id
			break
		}
	}
	st.mu.Unlock()
	if err := st.remove(victim, "a"); err != nil {
		t.Fatal(err)
	}
	if err := st.reserve("a"); err != nil {
		t.Fatalf("reserve after delete: %v", err)
	}
	st.unreserve("a")
}

// TestStoreTenantIsolation pins that one tenant cannot resolve or delete
// another tenant's session — and cannot distinguish "not mine" from "does
// not exist".
func TestStoreTenantIsolation(t *testing.T) {
	clock := newFakeClock()
	st := newSessionStore(10, 10, time.Hour, 0, clock.now)
	id := addSession(t, st, "a")

	if _, err := st.get(id, "b"); !errors.Is(err, errSessionNotFound) {
		t.Fatalf("cross-tenant get: err = %v, want errSessionNotFound", err)
	}
	if err := st.remove(id, "b"); !errors.Is(err, errSessionNotFound) {
		t.Fatalf("cross-tenant remove: err = %v, want errSessionNotFound", err)
	}
	if _, err := st.get(id, "a"); err != nil {
		t.Fatalf("owner get after cross-tenant probing: %v", err)
	}
}

// TestStoreTrieBytePressure pins the MaxTrieBytes behavior: usage updates
// that push the resident tries past the ceiling evict LRU sessions (counted
// separately from capacity-LRU), stale updates for evicted entries are
// no-ops, and the most recent session always survives — even when it alone
// exceeds the ceiling.
func TestStoreTrieBytePressure(t *testing.T) {
	clock := newFakeClock()
	st := newSessionStore(10, 10, time.Hour, 1000, clock.now)

	idA := addSession(t, st, "a")
	clock.advance(time.Second)
	idB := addSession(t, st, "a")
	clock.advance(time.Second)
	idC := addSession(t, st, "a")

	entry := func(id string) *sessionEntry {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.entries[id]
	}
	eA, eB, eC := entry(idA), entry(idB), entry(idC)

	st.updateUsage(eA, 10, 400)
	st.updateUsage(eB, 10, 400)
	if s := st.stats(); s.EvictedBytes != 0 || s.TrieBytes != 800 || s.TrieNodes != 20 {
		t.Fatalf("stats under the ceiling: %+v", s)
	}

	// The third update crosses the 1000-byte ceiling: the LRU session (idA,
	// oldest, never touched) is evicted to relieve pressure.
	st.updateUsage(eC, 10, 400)
	if _, err := st.get(idA, "a"); !errors.Is(err, errSessionNotFound) {
		t.Fatalf("byte-pressure victim idA still resolvable: err = %v", err)
	}
	s := st.stats()
	if s.EvictedBytes != 1 || s.EvictedLRU != 0 || s.Occupancy != 2 || s.TrieBytes != 800 {
		t.Fatalf("stats after byte-pressure eviction: %+v", s)
	}

	// A stale update for the evicted entry must not corrupt the totals.
	st.updateUsage(eA, 99, 9999)
	if s := st.stats(); s.TrieBytes != 800 || s.TrieNodes != 20 {
		t.Fatalf("stats after stale update: %+v", s)
	}

	// A single session larger than the whole ceiling evicts everything else
	// but survives itself (the floor keeps the session that just ran).
	st.updateUsage(eC, 10, 5000)
	if s := st.stats(); s.EvictedBytes != 2 || s.Occupancy != 1 || s.TrieBytes != 5000 {
		t.Fatalf("stats after oversized session: %+v", s)
	}
	if _, err := st.get(idC, "a"); err != nil {
		t.Fatalf("most recent session evicted by its own size: %v", err)
	}
	_ = eB
}

func TestStoreJanitorSweeps(t *testing.T) {
	clock := newFakeClock()
	st := newSessionStore(10, 10, time.Minute, 0, clock.now)
	addSession(t, st, "a")
	clock.advance(2 * time.Minute)

	st.startJanitor(time.Millisecond)
	defer st.close()
	deadline := time.Now().Add(2 * time.Second)
	for st.stats().Occupancy != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("janitor never collected the expired session: %+v", st.stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st.stats().EvictedTTL != 1 {
		t.Fatalf("stats: %+v", st.stats())
	}
}
