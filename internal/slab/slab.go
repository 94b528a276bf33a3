// Package slab carves values and fixed-capacity slices of one type from
// chunks, so code that creates many small values pays one allocation per
// chunk instead of one per value. Nothing carved is ever reused: a chunk
// stays reachable while anything points into it, so a caller sizes its
// chunks by how much memory a few surviving values may pin, and clears a
// value it abandons inside a live chunk when the value holds pointers.
// A chunk belongs to one owner (an engine, a solver, a trie) and is
// carved by one goroutine at a time.
package slab

// New returns a pointer to a zero T carved from *chunk, starting a new
// chunk of n values when the current one is full.
func New[T any](chunk *[]T, n int) *T {
	if len(*chunk) == cap(*chunk) {
		*chunk = make([]T, 0, n)
	}
	*chunk = (*chunk)[:len(*chunk)+1]
	return &(*chunk)[len(*chunk)-1]
}

// Slice returns a zero slice of length and capacity size carved from
// *chunk, starting a new chunk of max(n, size) values when the current one
// has less room.
func Slice[T any](chunk *[]T, n, size int) []T {
	if cap(*chunk)-len(*chunk) < size {
		*chunk = make([]T, 0, max(n, size))
	}
	at := len(*chunk)
	*chunk = (*chunk)[:at+size]
	return (*chunk)[at : at+size : at+size]
}
