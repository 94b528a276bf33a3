package memo

import "fmt"

// This file keeps the whole-trie walks that Usage and Rekey replaced, as the
// references the running accounting must reproduce (the way
// internal/dise/oracle_test.go keeps the front end it replaced).

// refUsage is the former Usage: one walk summing the node count and each
// node's byte estimate.
func refUsage(n *Node) (nodes int, bytes int64) {
	if n == nil {
		return 0, 0
	}
	nodes, bytes = 1, int64(nodeBaseBytes+len(n.Key()))
	for _, v := range n.verdicts {
		bytes += verdictBytes + int64(v.Model.Len())*modelEntryBytes
	}
	bytes += int64(cap(n.succs)) * succPtrBytes
	for _, c := range n.succs {
		cn, cb := refUsage(c)
		nodes += cn
		bytes += cb
	}
	return nodes, bytes
}

// refRekey is the former Rekey walk without its writes: the kept and
// invalidated counts it returned, and the key it left on every node.
func refRekey(n *Node, baseToMod map[string]string, keys map[*Node]string) (kept, invalidated int) {
	if k := n.Key(); k != "" {
		if nk, ok := baseToMod[k]; ok {
			keys[n] = nk
			kept++
		} else {
			keys[n] = ""
			invalidated++
		}
	} else {
		keys[n] = ""
	}
	for _, c := range n.succs {
		k, i := refRekey(c, baseToMod, keys)
		kept += k
		invalidated += i
	}
	return kept, invalidated
}

// RefUsage returns the reference walk's (nodes, bytes) for t.
func RefUsage(t *Tree) (nodes int, bytes int64) { return refUsage(t.root) }

// RekeyChecked runs t.Rekey and checks it against the reference walk: the
// same (kept, invalidated) counts and the same key on every node. It
// returns Rekey's counts.
func RekeyChecked(t *Tree, baseToMod map[string]string) (kept, invalidated int, err error) {
	var wantKept, wantInvalidated int
	keys := map[*Node]string{}
	if t.root != nil {
		wantKept, wantInvalidated = refRekey(t.root, baseToMod, keys)
	}
	kept, invalidated = t.Rekey(baseToMod)
	if kept != wantKept || invalidated != wantInvalidated {
		return kept, invalidated, fmt.Errorf("Rekey = (%d kept, %d invalidated), reference walk (%d, %d)",
			kept, invalidated, wantKept, wantInvalidated)
	}
	for n, want := range keys {
		if got := n.Key(); got != want {
			return kept, invalidated, fmt.Errorf("node rekeyed to %q, reference walk %q", got, want)
		}
	}
	return kept, invalidated, nil
}

// CheckUsage compares Usage, Size and Bytes with the reference walk.
func CheckUsage(t *Tree) error {
	nodes, bytes := t.Usage()
	refNodes, refBytes := RefUsage(t)
	if nodes != refNodes || bytes != refBytes {
		return fmt.Errorf("Usage = (%d nodes, %d bytes), reference walk (%d, %d)", nodes, bytes, refNodes, refBytes)
	}
	if t.Size() != nodes || t.Bytes() != bytes {
		return fmt.Errorf("Size/Bytes = (%d, %d), Usage (%d, %d)", t.Size(), t.Bytes(), nodes, bytes)
	}
	return nil
}
