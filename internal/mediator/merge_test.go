package mediator

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/query"
)

func sortedParts(rng *rand.Rand, k, per int) [][]query.ResultPoint {
	parts := make([][]query.ResultPoint, k)
	for i := range parts {
		n := rng.Intn(per + 1)
		parts[i] = make([]query.ResultPoint, n)
		for j := range parts[i] {
			parts[i][j] = query.ResultPoint{
				Code:  morton.Code(rng.Uint64() >> 16),
				Value: rng.Float32(),
			}
		}
		sort.Slice(parts[i], func(a, b int) bool { return parts[i][a].Code < parts[i][b].Code })
	}
	return parts
}

func flattenSorted(parts [][]query.ResultPoint) []query.ResultPoint {
	var all []query.ResultPoint
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Code < all[j].Code })
	return all
}

func TestMergeSortedPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		parts := sortedParts(rng, 1+rng.Intn(8), 200)
		got := mergeSortedPoints(parts)
		want := flattenSorted(parts)
		if len(want) == 0 {
			if len(got) != 0 {
				t.Fatalf("trial %d: merged %d points from empty parts", trial, len(got))
			}
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d points, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Code != want[i].Code {
				t.Fatalf("trial %d: point %d has code %v, want %v", trial, i, got[i].Code, want[i].Code)
			}
		}
	}
}

func TestMergeSortedPointsInterleaved(t *testing.T) {
	// Replica re-routing shape: each part spans ranges that interleave with
	// the others, so block concatenation would be wrong.
	a := []query.ResultPoint{{Code: 1, Value: 1}, {Code: 10, Value: 2}, {Code: 100, Value: 3}}
	b := []query.ResultPoint{{Code: 5, Value: 4}, {Code: 50, Value: 5}}
	c := []query.ResultPoint{{Code: 7, Value: 6}}
	got := mergeSortedPoints([][]query.ResultPoint{a, b, nil, c})
	want := []query.ResultPoint{
		{Code: 1, Value: 1}, {Code: 5, Value: 4}, {Code: 7, Value: 6},
		{Code: 10, Value: 2}, {Code: 50, Value: 5}, {Code: 100, Value: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
}

func TestMergeSortedPointsUnsortedFallback(t *testing.T) {
	// A node violating the sorted contract must still yield an ordered
	// result via the defensive re-sort.
	bad := []query.ResultPoint{{Code: 9}, {Code: 2}, {Code: 5}}
	ok := []query.ResultPoint{{Code: 1}, {Code: 7}}
	got := mergeSortedPoints([][]query.ResultPoint{bad, ok})
	if len(got) != 5 {
		t.Fatalf("merged %d points, want 5", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Code < got[i-1].Code {
			t.Fatalf("output unsorted at %d: %v", i, got)
		}
	}
}

func TestMergeSortedPointsDoesNotAliasInput(t *testing.T) {
	a := []query.ResultPoint{{Code: 3}}
	got := mergeSortedPoints([][]query.ResultPoint{a})
	got[0].Code = 99
	if a[0].Code != 3 {
		t.Fatal("merge output aliases input slice")
	}
}

// mustEqualPoints compares merged points with want code for code and value
// bit for bit.
func mustEqualPoints(t *testing.T, got, want []query.ResultPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("merged %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Code != want[i].Code || math.Float32bits(got[i].Value) != math.Float32bits(want[i].Value) {
			t.Fatalf("point %d is %v, want %v", i, got[i], want[i])
		}
	}
}

// codeRun is n sorted points with codes lo, lo+stride, ...
func codeRun(lo, stride, n int) []query.ResultPoint {
	out := make([]query.ResultPoint, n)
	for i := range out {
		out[i] = query.ResultPoint{Code: morton.Code(lo + i*stride), Value: float32(lo+i) * 0.5}
	}
	return out
}

func TestMergeSortedPointsDisjointShuffled(t *testing.T) {
	// The healthy-cluster shape: each node owns its own code range, and the
	// answers arrive in any order. The merge is their concatenation.
	a, b, c, d := codeRun(0, 3, 50), codeRun(1000, 2, 40), codeRun(2000, 1, 1), codeRun(3000, 7, 30)
	if disjointOrder([][]query.ResultPoint{c, a, d, b}) == nil {
		t.Fatal("disjoint sorted parts did not take the concatenation")
	}
	parts := [][]query.ResultPoint{c, nil, a, d, b}
	mustEqualPoints(t, mergeSortedPoints(parts), flattenSorted(parts))
}

func TestMergeSortedPointsSharedBoundary(t *testing.T) {
	// Two parts meeting at one code interleave at that code: the heap merges
	// them.
	a := []query.ResultPoint{{Code: 1, Value: 1}, {Code: 4, Value: 2}, {Code: 8, Value: 3}}
	b := []query.ResultPoint{{Code: 8, Value: 3}, {Code: 9, Value: 4}}
	if disjointOrder([][]query.ResultPoint{b, a}) != nil {
		t.Fatal("parts sharing a boundary code took the concatenation")
	}
	parts := [][]query.ResultPoint{b, a}
	mustEqualPoints(t, mergeSortedPoints(parts), flattenSorted(parts))
}

func TestMergeSortedPointsDisjointUnsortedPart(t *testing.T) {
	// Disjoint ranges, but one part breaks the sorted contract inside its
	// range: concatenating would pass it through unsorted, so the heap and
	// its defensive re-sort answer.
	bad := []query.ResultPoint{{Code: 10}, {Code: 30}, {Code: 20}}
	ok := []query.ResultPoint{{Code: 40}, {Code: 50}}
	parts := [][]query.ResultPoint{ok, bad}
	if disjointOrder(parts) != nil {
		t.Fatal("an unsorted part took the concatenation")
	}
	mustEqualPoints(t, mergeSortedPoints(parts), flattenSorted(parts))
}

// fuzzParts decodes merge input from fuzz bytes: data[0] picks the part
// count (1–8) and whether parts get disjoint code bases; then every 3 bytes
// are one point (part, code, value). Small codes make ties and interleaving
// common; the bases make the concatenation path common.
func fuzzParts(data []byte) [][]query.ResultPoint {
	if len(data) == 0 {
		return nil
	}
	k := int(data[0]&7) + 1
	disjoint := data[0]&0x80 != 0
	parts := make([][]query.ResultPoint, k)
	for rest := data[1:]; len(rest) >= 3; rest = rest[3:] {
		i := int(rest[0]) % k
		code := uint64(rest[1])
		if disjoint {
			code += uint64((i*5+int(data[0]>>3))%k) << 8
		}
		parts[i] = append(parts[i], query.ResultPoint{Code: morton.Code(code), Value: float32(rest[2])})
	}
	return parts
}

func FuzzMergeSortedPoints(f *testing.F) {
	f.Add([]byte{0x83, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4})
	f.Add([]byte{0x03, 0, 5, 1, 1, 5, 2, 0, 9, 3, 1, 2, 4})
	f.Add([]byte{0x81, 0, 9, 1, 0, 2, 2, 0, 3, 3})
	f.Add([]byte{0xf7, 7, 200, 1, 3, 10, 2, 7, 100, 3, 3, 1, 4, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		parts := fuzzParts(data)

		// Any input: the output is a sorted permutation of the input.
		got := mergeSortedPoints(parts)
		if !slices.IsSortedFunc(got, byCode) {
			t.Fatalf("output not sorted: %v", got)
		}
		var in []query.ResultPoint
		for _, p := range parts {
			in = append(in, p...)
		}
		byCodeValue := func(a, b query.ResultPoint) int {
			if c := byCode(a, b); c != 0 {
				return c
			}
			return cmp.Compare(math.Float32bits(a.Value), math.Float32bits(b.Value))
		}
		slices.SortFunc(in, byCodeValue)
		sortedGot := slices.Clone(got)
		slices.SortFunc(sortedGot, byCodeValue)
		if !slices.Equal(sortedGot, in) {
			t.Fatalf("output %v is not a permutation of the input %v", got, in)
		}

		// Sorted input: bit-identical to the k-way heap merge of the parts
		// in their given order.
		var heads [][]query.ResultPoint
		total := 0
		for _, p := range parts {
			slices.SortStableFunc(p, byCode)
			if len(p) > 0 {
				heads = append(heads, p)
				total += len(p)
			}
		}
		mustEqualPoints(t, mergeSortedPoints(parts), heapMerge(heads, total))
	})
}

// BenchmarkMergeSortedPoints merges four node answers of 6 554 points each:
// disjoint code ranges, as a healthy cluster's owners return them, and
// interleaved ranges, as replica re-routing can.
func BenchmarkMergeSortedPoints(b *testing.B) {
	const per = 6554
	shapes := []struct {
		name  string
		parts [][]query.ResultPoint
	}{
		{"disjoint", [][]query.ResultPoint{codeRun(0, 2, per), codeRun(4*per, 2, per), codeRun(8*per, 2, per), codeRun(12*per, 2, per)}},
		{"interleaved", [][]query.ResultPoint{codeRun(0, 4, per), codeRun(1, 4, per), codeRun(2, 4, per), codeRun(3, 4, per)}},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out := mergeSortedPoints(s.parts); len(out) != 4*per {
					b.Fatalf("merged %d points", len(out))
				}
			}
		})
	}
}
