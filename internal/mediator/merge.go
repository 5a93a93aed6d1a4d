package mediator

import (
	"cmp"
	"slices"
	"sort"

	"github.com/turbdb/turbdb/internal/query"
)

// mergeSortedPoints merges per-node threshold results into one
// Morton-ordered slice. Node evaluation emits points in code order
// (node/threshold.go sorts each result before returning), so the mediator
// never re-sorts the whole result. Each node owns its own Morton ranges, so
// on a healthy cluster the parts' code ranges do not interleave and the
// merge is their concatenation in order of first code — O(total) with one
// comparison per point to confirm it. Replica re-routing makes a node's
// slice span several disjoint scan ranges, so slices can genuinely
// interleave; those take a k-way heap merge, O(total·log k).
//
// Defensively, the output is verified non-decreasing as it is built — a
// node that ever returned unsorted points would otherwise corrupt the
// merge silently — and falls back to a full sort when the check trips.
func mergeSortedPoints(parts [][]query.ResultPoint) []query.ResultPoint {
	total := 0
	heads := make([][]query.ResultPoint, 0, len(parts))
	for _, p := range parts {
		if len(p) > 0 {
			heads = append(heads, p)
			total += len(p)
		}
	}
	if total == 0 {
		return nil
	}
	if ordered := disjointOrder(heads); ordered != nil {
		out := make([]query.ResultPoint, 0, total)
		for _, p := range ordered {
			out = append(out, p...)
		}
		return out
	}
	return heapMerge(heads, total)
}

func byCode(a, b query.ResultPoint) int { return cmp.Compare(a.Code, b.Code) }

// disjointOrder returns the non-empty parts ordered by first code when that
// order makes their concatenation sorted: each part is sorted and ends below
// the next one's first code. Otherwise it returns nil. Strict boundaries
// mean no code ties across parts, so the concatenation is exactly what the
// heap merge would emit.
func disjointOrder(heads [][]query.ResultPoint) [][]query.ResultPoint {
	ordered := slices.Clone(heads)
	slices.SortFunc(ordered, func(a, b []query.ResultPoint) int { return byCode(a[0], b[0]) })
	for i, p := range ordered {
		if i > 0 && ordered[i-1][len(ordered[i-1])-1].Code >= p[0].Code {
			return nil
		}
		if !slices.IsSortedFunc(p, byCode) {
			return nil
		}
	}
	return ordered
}

// heapMerge is the k-way merge of non-empty parts holding total points, in
// the parts' given order, with the defensive re-sort.
func heapMerge(heads [][]query.ResultPoint, total int) []query.ResultPoint {
	// Min-heap of the non-empty slices, keyed by head code.
	less := func(a, b []query.ResultPoint) bool { return a[0].Code < b[0].Code }
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(heads, i, less)
	}

	out := make([]query.ResultPoint, 0, total)
	sorted := true
	for len(heads) > 0 {
		top := heads[0]
		if len(out) > 0 && top[0].Code < out[len(out)-1].Code {
			sorted = false
		}
		out = append(out, top[0])
		if len(top) > 1 {
			heads[0] = top[1:]
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		if len(heads) > 0 {
			siftDown(heads, 0, less)
		}
	}
	if !sorted {
		sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	}
	return out
}

// siftDown restores the heap property below index i.
func siftDown(h [][]query.ResultPoint, i int, less func(a, b []query.ResultPoint) bool) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && less(h[l], h[smallest]) {
			smallest = l
		}
		if r < len(h) && less(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}
