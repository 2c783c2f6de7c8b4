package features

import "sync"

// ForBlocks splits the items [0, n) into min(workers, n) contiguous blocks
// — block b is [b·n/B, (b+1)·n/B) — and runs fn on each block in its own
// goroutine, returning when every block is done. A workers value below 1
// means one block.
func ForBlocks(n, workers int, fn func(b, lo, hi int)) {
	nb := numBlocks(n, workers)
	if nb == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for b := 0; b < nb; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			fn(b, b*n/nb, (b+1)*n/nb)
		}(b)
	}
	wg.Wait()
}

// numBlocks is the number of blocks ForBlocks splits n items into.
func numBlocks(n, workers int) int {
	return max(min(workers, n), 1)
}

// InternBlocks interns the features of the items [0, n) into a in
// parallel: intern runs once per ForBlocks block and looks every feature
// of its items up in the alphabet it is handed. Block 0 gets a itself;
// every later block gets a fresh local alphabet, and the local alphabets
// are merged into a in block order once all blocks are done. Each feature
// therefore gets the id in a that a serial pass over the items in order
// would give it — its first occurrence lies in the first block holding
// it, and a local alphabet lists its features in first-occurrence order —
// whatever the worker count.
//
// The result maps ids back: remap[b][id] is the id in a of block b's local
// id. remap[b] is nil when block b's ids already are a's: always for block
// 0, and for every block when a is frozen (each block then looks features
// up in a, read-only, and unknown ones get -1).
func InternBlocks(a *Alphabet, n, workers int, intern func(b, lo, hi int, local *Alphabet)) (remap [][]int32) {
	nb := numBlocks(n, workers)
	locals := make([]*Alphabet, nb)
	locals[0] = a
	for b := 1; b < nb; b++ {
		locals[b] = a
		if !a.frozen {
			locals[b] = NewAlphabet()
		}
	}
	ForBlocks(n, nb, func(b, lo, hi int) { intern(b, lo, hi, locals[b]) })
	remap = make([][]int32, nb)
	if a.frozen {
		return remap
	}
	for b := 1; b < nb; b++ {
		m := make([]int32, len(locals[b].names))
		for id, name := range locals[b].names {
			m[id] = int32(a.Lookup(name))
		}
		remap[b] = m
	}
	return remap
}
