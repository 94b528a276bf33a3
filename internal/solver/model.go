package solver

import (
	"fmt"
	"sort"
)

// Index is an input index: the names of a set of symbolic inputs in
// ascending order, and each name's position. A solver's boxes and models are
// laid out in the order of its index; indexes built over the same names have
// the same order, so their boxes and models agree position by position.
type Index struct {
	names []string
	pos   map[string]int
}

// NewIndex returns the index of the domains' names.
func NewIndex(domains map[string]Interval) *Index {
	names := make([]string, 0, len(domains))
	for n := range domains {
		names = append(names, n)
	}
	sort.Strings(names)
	pos := make(map[string]int, len(names))
	for i, n := range names {
		pos[n] = i
	}
	return &Index{names: names, pos: pos}
}

// Pos returns the position of name in the index; ok is false for a name
// outside it.
func (x *Index) Pos(name string) (pos int, ok bool) {
	if x == nil {
		return 0, false
	}
	pos, ok = x.pos[name]
	return pos, ok
}

// Model is a satisfying assignment, laid out like a Box: one value per input
// of its index, in index order, and a map of the names outside the index the
// problem bound (a local read before it is assigned); that map is nil unless
// such a name occurred. A model that does not bind every input of the index
// it was built over has no index, and holds all of its names in the map.
//
// A model is immutable once built, so models are shared freely: between a
// prefix cache's entries, memo verdicts, exploration states and the paths
// they end as, across goroutines.
type Model struct {
	index   *Index
	vals    []int64
	outside map[string]int64
}

// NewModel returns the model binding exactly the names of values, laid out
// over index. values is only read.
func NewModel(index *Index, values map[string]int64) *Model {
	m := &Model{}
	if index != nil {
		vals := make([]int64, len(index.names))
		covered := true
		for i, name := range index.names {
			v, ok := values[name]
			if !ok {
				covered = false
				break
			}
			vals[i] = v
		}
		if covered {
			m.index, m.vals = index, vals
		}
	}
	for name, v := range values {
		if _, in := m.index.Pos(name); in {
			continue
		}
		if m.outside == nil {
			m.outside = make(map[string]int64, len(values)-len(m.vals))
		}
		m.outside[name] = v
	}
	return m
}

// Index returns the index the model's values are laid out over, or nil.
func (m *Model) Index() *Index { return m.index }

// At returns the value of the input at position pos of the model's index.
func (m *Model) At(pos int) int64 { return m.vals[pos] }

// Value returns the value bound to name; ok is false when the model does not
// bind it.
func (m *Model) Value(name string) (v int64, ok bool) {
	if m == nil {
		return 0, false
	}
	if pos, in := m.index.Pos(name); in {
		return m.vals[pos], true
	}
	v, ok = m.outside[name]
	return v, ok
}

// Len returns the number of names the model binds. A nil model binds none.
func (m *Model) Len() int {
	if m == nil {
		return 0
	}
	return len(m.vals) + len(m.outside)
}

// Each calls fn for every binding: the inputs in index order, then the
// names outside the index in no particular order.
func (m *Model) Each(fn func(name string, v int64)) {
	if m == nil {
		return
	}
	for i, v := range m.vals {
		fn(m.index.names[i], v)
	}
	for name, v := range m.outside {
		fn(name, v)
	}
}

// Map returns the model as a map from name to value.
func (m *Model) Map() map[string]int64 {
	out := make(map[string]int64, m.Len())
	m.Each(func(name string, v int64) { out[name] = v })
	return out
}

// String renders the model like its Map: "map[X:1 Y:0]".
func (m *Model) String() string { return fmt.Sprint(m.Map()) }
