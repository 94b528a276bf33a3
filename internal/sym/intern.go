package sym

// Hash-consing interner: every smart constructor returns a canonical node
// from a global, sharded intern table, so structurally equal expressions are
// pointer-identical. Each canonical node carries an interner-owned header
// with a precomputed pair of independent 64-bit structural fingerprints,
// the cached sorted list of variables occurring in it, and a lazily
// memoized rendering. The three hot operations of the execution engine —
// comparing expressions (Equal), keying caches (Fingerprint/Fingerprints),
// and collecting variables (Vars) — become a pointer compare, a field read,
// and a slice read.
//
// The canonicalization contract: within one process, for any two expressions
// built through the constructors (Int, Bool, V, Add, Sub, Mul, Div, Mod,
// NegE, Cmp, AndE, OrE, NotE, ITE, Subst) or passed through Intern, structural
// equality coincides with pointer equality. Nodes built as raw composite
// literals (test code) are "un-interned": they carry no header, and Equal
// falls back to the structural walk for them.
//
// Lifetime: the table is global and epoch-collected. Its size is bounded by
// the distinct sub-expressions interned (shared sub-structure collapses),
// not by the number of states, and canonicality across engines, sessions
// and cached artifacts (the memo trie, the prefix cache, the parse cache
// all retain expression pointers) is the point of a process-wide table. For
// a very long-lived service analyzing an unbounded stream of unrelated
// programs, though, append-only accretion is a leak — so every table entry
// carries the epoch (a coarse logical clock, advanced by AdvanceEpoch; the
// facade ties it to completed analysis runs) at which it was last looked
// up, and CollectInterned drops entries untouched for N epochs, shard by
// shard under each shard's own lock.
//
// Collection weakens the canonicalization contract in exactly one way: a
// node whose table entry was collected and that is later re-interned is
// rebuilt fresh, so a pointer held across a collection may be structurally
// equal to — but not pointer-identical with — a newer canonical node.
// Pointer equality still implies structural equality, always; the converse
// holds only between nodes interned in the same collection era. Every
// pointer-keyed consumer tolerates that by construction: Equal falls back
// to the (exact) fingerprint compare plus structural walk when two
// canonical nodes have different headers, the prefix cache keys on
// structural fingerprints (pure functions of shape, identical before and
// after re-interning — never raw pointers), the memo trie matches verdicts
// with sym.Equal, and the solver's compiled-constraint maps are per-run
// (a stale pointer key merely misses and recompiles). The diselint
// internepoch pass audits the remaining surface: no package-level variable
// outside this package may retain sym.Expr values, so nothing else can hold
// a canonical pointer across epochs. Pre-interned constants (True, False,
// smallInt) are pinned — their constructors return package-level pointers
// without a table lookup, so collecting their entries could otherwise mint
// duplicates of the singletons themselves.
//
// Fingerprints are pure functions of structure (Fingerprint computes the
// same value for an un-interned tree as interning it would), so they are
// stable across engines and across program versions — two runs asserting
// the same constraint compute the same fingerprint, which is what lets the
// constraint subsystem key its shared prefix cache on them. They are NOT
// stable across process restarts or releases (the mixing constants are an
// implementation detail); nothing may persist them.

import (
	"sync"
	"sync/atomic"
)

// hdr is the interner-owned header of a canonical node. It lives behind a
// pointer so node structs stay freely copyable (no embedded atomics): a
// by-value copy of a canonical node shares its header, so Equal (which
// compares headers, not node pointers) and Intern (which returns the
// header's canonical node) treat the copy exactly like the original.
type hdr struct {
	// canon is the canonical node this header belongs to, set when the node
	// is published. Intern returns it for any node carrying the header,
	// canonicalizing by-value copies back to the table's pointer.
	canon Expr
	// fp and fp2 are two independent structural fingerprints (different
	// salts, different mixers), precomputed at intern time. Consumers that
	// chain fingerprints into wider keys (the constraint prefix cache's
	// 128-bit chain) feed one fingerprint to each half, so a wrong shared
	// entry needs both independent 64-bit hashes to collide (~2^-128 per
	// pair), not just one.
	fp  uint64
	fp2 uint64
	// vars is the sorted list of variable names occurring in the node,
	// shared with (not copied from) the children where possible. Readers
	// must treat it as immutable.
	vars []string
	// str memoizes the canonical rendering; nil until first requested.
	// Concurrent first renders may race benignly (same value stored).
	str atomic.Pointer[string]
	// epoch is the interner epoch at which the node's table entry was last
	// looked up (or built), or pinnedEpoch for the pre-interned constants.
	// It is read and written only under the owning shard's mutex — a plain
	// field, not an atomic, because every access site holds that lock.
	epoch uint64
}

func (e *IntConst) header() *hdr  { return e.h }
func (e *BoolConst) header() *hdr { return e.h }
func (e *Var) header() *hdr       { return e.h }
func (e *Bin) header() *hdr       { return e.h }
func (e *Not) header() *hdr       { return e.h }
func (e *Neg) header() *hdr       { return e.h }
func (e *Ite) header() *hdr       { return e.h }

func headerOf(e Expr) *hdr {
	if e == nil {
		return nil
	}
	return e.header()
}

// Interned reports whether e is a canonical node of the intern table (and
// hence comparable to other canonical nodes by pointer).
func Interned(e Expr) bool { return headerOf(e) != nil }

// --- fingerprints ------------------------------------------------------------

// Mix64 is the splitmix64 finalizer: a cheap full-avalanche bijection. It
// is exported (alongside MixAlt) for consumers chaining fingerprints into
// wider keys, so the finalizer constants live in exactly one place.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// MixAlt is the murmur3 finalizer — different constants and shifts than
// Mix64, used wherever a second, independent mixing function is needed
// (the second fingerprint half, the second prefix-key half).
func MixAlt(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// fp128 is a pair of independent structural fingerprints: the two halves
// are computed by parallel hash trees with different salts, string hashes
// and finalizers, so they only collide together when two genuinely
// independent 64-bit hash functions both collide.
type fp128 struct{ a, b uint64 }

// Per-kind salts keep structurally different nodes with equal sub-content
// apart (Var "5" vs Int 5, Not vs Neg). Each kind has one salt per
// fingerprint half.
const (
	fpSaltInt   = 0xa24baed4963ee407
	fpSaltTrue  = 0x9fb21c651e98df25
	fpSaltFalse = 0x6c62272e07bb0142
	fpSaltVar   = 0xd6e8feb86659fd93
	fpSaltBin   = 0x27d4eb2f165667c5
	fpSaltNot   = 0xc2b2ae3d27d4eb4f
	fpSaltNeg   = 0x165667b19e3779f9
	fpSaltIte   = 0x7f4a7c159e3779b9

	fp2SaltInt   = 0x8a5cd789635d2dff
	fp2SaltTrue  = 0x121fd2155c472f96
	fp2SaltFalse = 0x4a25707a89b8eb31
	fp2SaltVar   = 0x6e73e5a2cd91d0d1
	fp2SaltBin   = 0x9f494aa6de2b1ec5
	fp2SaltNot   = 0x86b2536fcd8f9ab1
	fp2SaltNeg   = 0x3c79ac492ba7b653
	fp2SaltIte   = 0x2b1ec59f494aa6de
)

func fpInt(v int64) fp128 {
	return fp128{Mix64(fpSaltInt ^ uint64(v)), MixAlt(fp2SaltInt + uint64(v)*0x2545f4914f6cdd1d)}
}

func fpBool(v bool) fp128 {
	if v {
		return fp128{Mix64(fpSaltTrue), MixAlt(fp2SaltTrue)}
	}
	return fp128{Mix64(fpSaltFalse), MixAlt(fp2SaltFalse)}
}

func fpVar(name string) fp128 {
	// Half a: FNV-1a; half b: a 64-bit polynomial hash with an unrelated
	// multiplier, so a name collision in one half is independent of the
	// other.
	h := uint64(0xcbf29ce484222325)
	g := uint64(fp2SaltVar)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
		g = g*0x5deece66d + uint64(name[i])
	}
	return fp128{Mix64(h ^ fpSaltVar), MixAlt(g)}
}

// fpBin is order-sensitive in (op, l, r): the operand fingerprints are
// scaled by different odd constants before combining, per half.
func fpBin(op Op, l, r fp128) fp128 {
	return fp128{
		Mix64(fpSaltBin ^ uint64(op)*0x9e3779b97f4a7c15 ^ l.a*0x85ebca77c2b2ae63 ^ Mix64(r.a)*0xff51afd7ed558ccd),
		MixAlt(fp2SaltBin + uint64(op)*0xd1342543de82ef95 + l.b*0xaef17502108ef2d9 + MixAlt(r.b)*0x9e6c63d0676a9a99),
	}
}

func fpNot(x fp128) fp128 { return fp128{Mix64(fpSaltNot ^ x.a), MixAlt(fp2SaltNot + x.b)} }
func fpNeg(x fp128) fp128 { return fp128{Mix64(fpSaltNeg ^ x.a), MixAlt(fp2SaltNeg + x.b)} }

// fpIte is order-sensitive in (cond, then, else): fpBin's scheme with a
// third operand, scaled by its own odd constant per half.
func fpIte(c, t, e fp128) fp128 {
	return fp128{
		Mix64(fpSaltIte ^ c.a*0x9e3779b97f4a7c15 ^ Mix64(t.a)*0x85ebca77c2b2ae63 ^ MixAlt(e.a)*0xff51afd7ed558ccd),
		MixAlt(fp2SaltIte + c.b*0xd1342543de82ef95 + MixAlt(t.b)*0xaef17502108ef2d9 + Mix64(e.b)*0x9e6c63d0676a9a99),
	}
}

// Fingerprint returns the primary structural fingerprint of e: a field read
// for canonical nodes, a structural computation (yielding the identical
// value) for un-interned ones. Equal expressions have equal fingerprints;
// distinct expressions collide with probability ~2^-64 per pair — callers
// needing a stronger bound chain both halves via Fingerprints. Fingerprints
// are process-local — see the package comment in this file.
func Fingerprint(e Expr) uint64 {
	if h := headerOf(e); h != nil {
		return h.fp
	}
	return fingerprints(e).a
}

// Fingerprints returns both independent structural fingerprints of e. The
// constraint prefix cache chains one per key half, so a wrong shared entry
// needs two independent 64-bit collisions at once (~2^-128 per pair).
func Fingerprints(e Expr) (uint64, uint64) {
	if h := headerOf(e); h != nil {
		return h.fp, h.fp2
	}
	p := fingerprints(e)
	return p.a, p.b
}

func fingerprints(e Expr) fp128 {
	if h := headerOf(e); h != nil {
		return fp128{h.fp, h.fp2}
	}
	switch e := e.(type) {
	case *IntConst:
		return fpInt(e.V)
	case *BoolConst:
		return fpBool(e.V)
	case *Var:
		return fpVar(e.Name)
	case *Bin:
		return fpBin(e.Op, fingerprints(e.L), fingerprints(e.R))
	case *Not:
		return fpNot(fingerprints(e.X))
	case *Neg:
		return fpNeg(fingerprints(e.X))
	case *Ite:
		return fpIte(fingerprints(e.Cond), fingerprints(e.Then), fingerprints(e.Else))
	}
	return fp128{}
}

// --- the intern table --------------------------------------------------------

// ikey identifies one node structurally. Children are canonical (interned
// first, bottom-up), so child identity is pointer identity and map equality
// over ikey is exactly structural equality — no hashing of whole trees.
type ikey struct {
	kind byte
	op   Op
	l, r Expr
	x    Expr // third child, kITE only (l=cond, r=then, x=else)
	iv   int64
	name string
}

const (
	kInt byte = iota
	kBool
	kVar
	kBin
	kNot
	kNeg
	kITE
)

// internShards spreads the table over independently locked shards, picked by
// fingerprint, so concurrent engines (batch analyses, service requests)
// rarely contend. 64 shards keep the worst case to a short
// critical section around one map operation.
const internShards = 64

type internShard struct {
	mu sync.Mutex
	m  map[ikey]Expr
}

var internTab [internShards]internShard

// internEpoch is the global epoch clock. It only orders collection — nothing
// about expression semantics depends on it — so a coarse, occasionally
// advanced counter is enough.
var internEpoch atomic.Uint64

// internedTotal and collectedTotal are cumulative observability counters:
// nodes ever built into the table, and entries ever collected from it.
var internedTotal, collectedTotal atomic.Uint64

// pinnedEpoch marks entries that must never be collected: the pre-interned
// constants, whose constructors hand out package-level pointers without a
// table lookup (collecting their entries could mint duplicate singletons).
const pinnedEpoch = ^uint64(0)

// AdvanceEpoch moves the interner clock forward one epoch and returns the
// new value. The facade advances it once per completed analysis run, making
// "untouched for N epochs" mean "not needed by the last N runs".
func AdvanceEpoch() uint64 { return internEpoch.Add(1) }

// internNode returns the canonical node for k, building it (with the header
// pre-filled by build) on first sight. Either way the entry's last-touched
// epoch is refreshed under the shard lock.
func internNode(fp fp128, k ikey, build func(h *hdr) Expr) Expr {
	cur := internEpoch.Load()
	s := &internTab[fp.a%internShards]
	s.mu.Lock()
	if e, ok := s.m[k]; ok {
		if h := e.header(); h.epoch != pinnedEpoch {
			h.epoch = cur
		}
		s.mu.Unlock()
		return e
	}
	if s.m == nil {
		s.m = make(map[ikey]Expr)
	}
	h := &hdr{fp: fp.a, fp2: fp.b, epoch: cur}
	e := build(h)
	h.canon = e
	s.m[k] = e
	s.mu.Unlock()
	internedTotal.Add(1)
	return e
}

// CollectInterned drops every table entry untouched for more than keepEpochs
// epochs (keepEpochs < 1 is treated as 1: only entries touched in the
// current epoch survive) and returns the number of entries dropped. Each
// shard is scanned and pruned under its own lock, so collection never stops
// the world — concurrent interning proceeds on the other shards.
//
// Collection removes table *entries*, not nodes: a collected node stays
// valid for every holder, it just stops being the node future interning of
// that structure returns. See the package comment for the (relaxed)
// contract and why every consumer tolerates it.
func CollectInterned(keepEpochs int) int {
	if keepEpochs < 1 {
		keepEpochs = 1
	}
	cur := internEpoch.Load()
	var cutoff uint64
	if uint64(keepEpochs) < cur {
		cutoff = cur - uint64(keepEpochs)
	}
	dropped := 0
	for i := range internTab {
		s := &internTab[i]
		s.mu.Lock()
		before := len(s.m)
		for k, e := range s.m {
			if h := e.header(); h.epoch != pinnedEpoch && h.epoch < cutoff {
				delete(s.m, k)
			}
		}
		d := before - len(s.m)
		if d > 0 && d >= len(s.m) {
			// Go maps never shrink their bucket arrays on delete; when a
			// collection halved the shard (or more), rebuild the map so the
			// reclaimed entries actually return memory.
			fresh := make(map[ikey]Expr, len(s.m))
			for k, e := range s.m {
				fresh[k] = e
			}
			s.m = fresh
		}
		s.mu.Unlock()
		dropped += d
	}
	if dropped > 0 {
		collectedTotal.Add(uint64(dropped))
	}
	return dropped
}

// internEntryApproxBytes is the rough per-entry footprint used by
// InternTableStats.ApproxBytes: the map key (ikey, ~64B), the map's bucket
// overhead, the node struct and its header. An estimate for capacity
// accounting, not an exact meter.
const internEntryApproxBytes = 224

// InternStats is a snapshot of the intern table for observability: live
// entries, the cumulative built/collected counters, the current epoch, and
// an approximate byte footprint.
type InternStats struct {
	Entries     int
	ApproxBytes int64
	Epoch       uint64
	Interned    uint64
	Collected   uint64
}

// InternTableStats snapshots the intern table. Shard sizes are read under
// each shard's lock in turn, so the total is a consistent-enough figure for
// metrics, not an atomic snapshot of the whole table.
func InternTableStats() InternStats {
	st := InternStats{
		Epoch:     internEpoch.Load(),
		Interned:  internedTotal.Load(),
		Collected: collectedTotal.Load(),
	}
	for i := range internTab {
		s := &internTab[i]
		s.mu.Lock()
		st.Entries += len(s.m)
		s.mu.Unlock()
	}
	st.ApproxBytes = int64(st.Entries) * internEntryApproxBytes
	return st
}

func internInt(v int64) *IntConst {
	return internNode(fpInt(v), ikey{kind: kInt, iv: v}, func(h *hdr) Expr {
		return &IntConst{V: v, h: h}
	}).(*IntConst)
}

func internBool(v bool) *BoolConst {
	return internNode(fpBool(v), ikey{kind: kBool, iv: b2i(v)}, func(h *hdr) Expr {
		return &BoolConst{V: v, h: h}
	}).(*BoolConst)
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

func internVar(name string) *Var {
	return internNode(fpVar(name), ikey{kind: kVar, name: name}, func(h *hdr) Expr {
		h.vars = []string{name}
		return &Var{Name: name, h: h}
	}).(*Var)
}

// newBin interns (op, l, r), canonicalizing the children first. It performs
// no simplification — the smart constructors in simplify.go do that before
// calling it.
func newBin(op Op, l, r Expr) *Bin {
	l, r = Intern(l), Intern(r)
	lh, rh := l.header(), r.header()
	fp := fpBin(op, fp128{lh.fp, lh.fp2}, fp128{rh.fp, rh.fp2})
	return internNode(fp, ikey{kind: kBin, op: op, l: l, r: r}, func(h *hdr) Expr {
		h.vars = mergeVars(lh.vars, rh.vars)
		return &Bin{Op: op, L: l, R: r, h: h}
	}).(*Bin)
}

func newNot(x Expr) *Not {
	x = Intern(x)
	xh := x.header()
	fp := fpNot(fp128{xh.fp, xh.fp2})
	return internNode(fp, ikey{kind: kNot, l: x}, func(h *hdr) Expr {
		h.vars = xh.vars
		return &Not{X: x, h: h}
	}).(*Not)
}

func newNeg(x Expr) *Neg {
	x = Intern(x)
	xh := x.header()
	fp := fpNeg(fp128{xh.fp, xh.fp2})
	return internNode(fp, ikey{kind: kNeg, l: x}, func(h *hdr) Expr {
		h.vars = xh.vars
		return &Neg{X: x, h: h}
	}).(*Neg)
}

// newITE interns ite(c, t, e), canonicalizing the children first. No
// simplification — the ITE smart constructor in simplify.go does that.
func newITE(c, t, e Expr) *Ite {
	c, t, e = Intern(c), Intern(t), Intern(e)
	ch, th, eh := c.header(), t.header(), e.header()
	fp := fpIte(fp128{ch.fp, ch.fp2}, fp128{th.fp, th.fp2}, fp128{eh.fp, eh.fp2})
	return internNode(fp, ikey{kind: kITE, l: c, r: t, x: e}, func(h *hdr) Expr {
		h.vars = mergeVars(mergeVars(ch.vars, th.vars), eh.vars)
		return &Ite{Cond: c, Then: t, Else: e, h: h}
	}).(*Ite)
}

// Intern returns the canonical node structurally equal to e, interning its
// sub-expressions bottom-up as needed. It preserves structure exactly — no
// simplification — so Intern(a) == Intern(b) iff Equal(a, b). Canonical
// nodes return themselves (and by-value copies of canonical nodes return
// their original via the shared header), making Intern O(1) on the hot
// path: expressions built through the constructors are already canonical.
func Intern(e Expr) Expr {
	if e == nil {
		return nil
	}
	if h := e.header(); h != nil {
		return h.canon
	}
	switch e := e.(type) {
	case *IntConst:
		return Int(e.V)
	case *BoolConst:
		return Bool(e.V)
	case *Var:
		return V(e.Name)
	case *Bin:
		return newBin(e.Op, Intern(e.L), Intern(e.R))
	case *Not:
		return newNot(Intern(e.X))
	case *Neg:
		return newNeg(Intern(e.X))
	case *Ite:
		return newITE(Intern(e.Cond), Intern(e.Then), Intern(e.Else))
	}
	panic("sym.Intern: unknown expression")
}

// mergeVars unions two sorted name lists, sharing an input slice whenever it
// already is the union (the dominant case: one side constant, or both sides
// over the same variable).
func mergeVars(a, b []string) []string {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	if subsetOf(b, a) {
		return a
	}
	if subsetOf(a, b) {
		return b
	}
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// subsetOf reports a ⊆ b for sorted slices.
func subsetOf(a, b []string) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
	}
	return true
}

// --- pre-interned constants --------------------------------------------------

// smallInt caches canonical nodes for the constants programs actually
// mention, bypassing the shard lock on the hottest constructor.
const (
	smallIntLo = -128
	smallIntHi = 256
)

var smallInt [smallIntHi - smallIntLo]*IntConst

func init() {
	for v := int64(smallIntLo); v < smallIntHi; v++ {
		smallInt[v-smallIntLo] = internInt(v)
	}
	// Pin everything interned so far: at this point the table holds exactly
	// the pre-interned constants (True/False/Zero/One from the package vars,
	// smallInt from the loop above), whose constructors bypass the table and
	// must therefore keep their entries forever.
	for i := range internTab {
		s := &internTab[i]
		s.mu.Lock()
		for _, e := range s.m {
			e.header().epoch = pinnedEpoch
		}
		s.mu.Unlock()
	}
}
