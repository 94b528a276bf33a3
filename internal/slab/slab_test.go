package slab

import "testing"

func TestNewCarvesChunks(t *testing.T) {
	var chunk []int
	a := New(&chunk, 2)
	b := New(&chunk, 2)
	*a, *b = 1, 2
	c := New(&chunk, 2) // a new chunk: a and b keep theirs
	if *a != 1 || *b != 2 || *c != 0 {
		t.Fatalf("values = %d %d %d, want 1 2 0", *a, *b, *c)
	}
	if cap(chunk) != 2 || len(chunk) != 1 {
		t.Fatalf("chunk len/cap = %d/%d, want 1/2", len(chunk), cap(chunk))
	}
}

func TestSliceHasExactCapacity(t *testing.T) {
	var chunk []int
	s := Slice(&chunk, 8, 3)
	u := Slice(&chunk, 8, 3)
	if len(s) != 3 || cap(s) != 3 || len(u) != 3 || cap(u) != 3 {
		t.Fatalf("len/cap = %d/%d and %d/%d, want 3/3", len(s), cap(s), len(u), cap(u))
	}
	s = append(s, 9) // must not run into u
	if u[0] != 0 {
		t.Fatalf("appending past one slice wrote into the next: %v", u)
	}
	if big := Slice(&chunk, 8, 20); len(big) != 20 || cap(chunk) != 20 {
		t.Fatalf("oversized request: len %d, chunk cap %d; want 20, 20", len(big), cap(chunk))
	}
}
