package grid

import (
	"math/rand"
	"testing"
)

func mustGrid(t testing.TB, n, atom int) Grid {
	t.Helper()
	g, err := New(n, atom, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		n, atom int
		dx      float64
		ok      bool
	}{
		{64, 8, 1, true},
		{8, 8, 0.5, true},
		{63, 8, 1, false},  // not pow2
		{64, 7, 1, false},  // atom not pow2
		{8, 16, 1, false},  // n not multiple of atom
		{64, 8, 0, false},  // dx zero
		{64, 8, -1, false}, // dx negative
		{0, 8, 1, false},   // n zero
		{-64, 8, 1, false}, // n negative
		{64, 0, 1, false},  // atom zero
		{128, 4, 1, true},  // small atoms
		{256, 16, 1, true}, // big atoms
	}
	for _, c := range cases {
		_, err := New(c.n, c.atom, c.dx)
		if (err == nil) != c.ok {
			t.Errorf("New(%d,%d,%g): err=%v, want ok=%v", c.n, c.atom, c.dx, err, c.ok)
		}
	}
}

func TestBoxBasics(t *testing.T) {
	b := Box{Lo: Point{1, 2, 3}, Hi: Point{4, 6, 8}}
	if b.Empty() {
		t.Fatal("non-empty box reported empty")
	}
	nx, ny, nz := b.Size()
	if nx != 3 || ny != 4 || nz != 5 {
		t.Errorf("Size = (%d,%d,%d)", nx, ny, nz)
	}
	if b.NumPoints() != 60 {
		t.Errorf("NumPoints = %d", b.NumPoints())
	}
	if !b.Contains(Point{1, 2, 3}) || b.Contains(Point{4, 2, 3}) {
		t.Error("Contains boundary semantics wrong")
	}
	empty := Box{Lo: Point{5, 5, 5}, Hi: Point{5, 9, 9}}
	if !empty.Empty() || empty.NumPoints() != 0 {
		t.Error("empty box misreported")
	}
}

func TestBoxIntersect(t *testing.T) {
	a := Box{Lo: Point{0, 0, 0}, Hi: Point{10, 10, 10}}
	b := Box{Lo: Point{5, 5, 5}, Hi: Point{15, 15, 15}}
	got := a.Intersect(b)
	want := Box{Lo: Point{5, 5, 5}, Hi: Point{10, 10, 10}}
	if got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	disjoint := Box{Lo: Point{20, 20, 20}, Hi: Point{30, 30, 30}}
	if !a.Intersect(disjoint).Empty() {
		t.Error("disjoint intersection not empty")
	}
}

func TestBoxContainsBox(t *testing.T) {
	outer := Box{Lo: Point{0, 0, 0}, Hi: Point{10, 10, 10}}
	if !outer.ContainsBox(Box{Lo: Point{0, 0, 0}, Hi: Point{10, 10, 10}}) {
		t.Error("box should contain itself")
	}
	if !outer.ContainsBox(Box{Lo: Point{2, 2, 2}, Hi: Point{3, 3, 3}}) {
		t.Error("box should contain interior box")
	}
	if outer.ContainsBox(Box{Lo: Point{2, 2, 2}, Hi: Point{11, 3, 3}}) {
		t.Error("box should not contain overflowing box")
	}
	if !outer.ContainsBox(Box{}) {
		t.Error("every box contains the empty box")
	}
}

func TestBoxExpand(t *testing.T) {
	b := Box{Lo: Point{4, 4, 4}, Hi: Point{8, 8, 8}}
	e := b.Expand(2)
	if e.Lo != (Point{2, 2, 2}) || e.Hi != (Point{10, 10, 10}) {
		t.Errorf("Expand(2) = %v", e)
	}
	if got := e.Expand(-2); got != b {
		t.Errorf("Expand(-2) did not undo: %v", got)
	}
}

func TestWrap(t *testing.T) {
	g := mustGrid(t, 64, 8)
	cases := []struct{ in, want int }{
		{0, 0}, {63, 63}, {64, 0}, {65, 1}, {-1, 63}, {-64, 0}, {-65, 63}, {128, 0},
	}
	for _, c := range cases {
		if got := g.Wrap(c.in); got != c.want {
			t.Errorf("Wrap(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	p := g.WrapPoint(Point{-1, 64, 130})
	if p != (Point{63, 0, 2}) {
		t.Errorf("WrapPoint = %v", p)
	}
}

func TestAtomCodeOriginRoundTrip(t *testing.T) {
	g := mustGrid(t, 64, 8)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		p := Point{rng.Intn(64), rng.Intn(64), rng.Intn(64)}
		code := g.AtomCode(p)
		origin := g.AtomOrigin(code)
		if origin.X != p.X/8*8 || origin.Y != p.Y/8*8 || origin.Z != p.Z/8*8 {
			t.Fatalf("point %v: code %v origin %v", p, code, origin)
		}
		if !g.AtomBox(code).Contains(p) {
			t.Fatalf("atom box %v does not contain %v", g.AtomBox(code), p)
		}
	}
}

func TestAtomRangeCountsAtoms(t *testing.T) {
	g := mustGrid(t, 64, 8)
	r := g.AtomRange()
	if got := r.CellCount(); got != uint64(g.NumAtoms()) {
		t.Errorf("AtomRange covers %d codes, NumAtoms = %d", got, g.NumAtoms())
	}
	if g.NumAtoms() != 512 {
		t.Errorf("NumAtoms = %d, want 512", g.NumAtoms())
	}
	if g.PointsPerAtom() != 512 {
		t.Errorf("PointsPerAtom = %d, want 512", g.PointsPerAtom())
	}
	if g.AtomsPerSide() != 8 {
		t.Errorf("AtomsPerSide = %d, want 8", g.AtomsPerSide())
	}
}

func TestAtomsCoveringWholeDomain(t *testing.T) {
	g := mustGrid(t, 32, 8)
	codes, err := g.AtomsCovering(g.Domain())
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != g.NumAtoms() {
		t.Fatalf("covering domain returned %d atoms, want %d", len(codes), g.NumAtoms())
	}
	// must be sorted and unique
	for i := 1; i < len(codes); i++ {
		if codes[i] <= codes[i-1] {
			t.Fatalf("codes not strictly ascending at %d", i)
		}
	}
}

func TestAtomsCoveringSubBox(t *testing.T) {
	g := mustGrid(t, 64, 8)
	// box straddling four atoms in x-y, one layer in z
	b := Box{Lo: Point{6, 6, 0}, Hi: Point{10, 10, 8}}
	codes, err := g.AtomsCovering(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != 4 {
		t.Fatalf("expected 4 atoms, got %d", len(codes))
	}
	// every returned atom must intersect the box
	for _, c := range codes {
		if g.AtomBox(c).Intersect(b).Empty() {
			t.Errorf("atom %v does not intersect %v", c, b)
		}
	}
}

func TestAtomsCoveringPeriodicHalo(t *testing.T) {
	g := mustGrid(t, 32, 8)
	// a box expanded past the lower domain corner must wrap to the far side
	b := Box{Lo: Point{-2, 0, 0}, Hi: Point{2, 8, 8}}
	codes, err := g.AtomsCovering(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != 2 {
		t.Fatalf("expected 2 atoms (one wrapped), got %d", len(codes))
	}
	var haveLow, haveHigh bool
	for _, c := range codes {
		o := g.AtomOrigin(c)
		if o.X == 0 {
			haveLow = true
		}
		if o.X == 24 {
			haveHigh = true
		}
	}
	if !haveLow || !haveHigh {
		t.Errorf("wrapped cover missing expected atoms: low=%v high=%v", haveLow, haveHigh)
	}
}

func TestAtomsCoveringDedup(t *testing.T) {
	g := mustGrid(t, 16, 8)
	// full-domain box expanded by a halo wraps onto itself; atoms must not
	// be double counted
	b := g.Domain().Expand(2)
	if _, err := g.AtomsCovering(b); err == nil {
		t.Fatal("expected error: expanded box exceeds domain side")
	}
	// a legal wrap: box that covers the whole domain exactly
	codes, err := g.AtomsCovering(g.Domain())
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != 8 {
		t.Errorf("expected 8 atoms, got %d", len(codes))
	}
}

func TestAtomsCoveringEmpty(t *testing.T) {
	g := mustGrid(t, 16, 8)
	codes, err := g.AtomsCovering(Box{})
	if err != nil || codes != nil {
		t.Errorf("empty box: codes=%v err=%v", codes, err)
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{7, 8, 0}, {8, 8, 1}, {-1, 8, -1}, {-8, 8, -1}, {-9, 8, -2}, {0, 8, 0},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestAtomCodesAreAtomGranular(t *testing.T) {
	// Consecutive atom codes must enumerate atoms: the atom range for a 16³
	// grid with 8³ atoms is [0, 8).
	g := mustGrid(t, 16, 8)
	r := g.AtomRange()
	if r.Lo != 0 || r.Hi != 8 {
		t.Errorf("AtomRange = %v, want [0,8)", r)
	}
	// And every code decodes to an in-domain atom origin.
	for c := r.Lo; c < r.Hi; c++ {
		o := g.AtomOrigin(c)
		if !g.Domain().Contains(o) {
			t.Errorf("atom %v origin %v outside domain", c, o)
		}
	}
}

// A box that leaves the domain on both sides of an axis reaches the same
// atom through two tiles: the cover must list it once, in ascending order.
func TestAtomsCoveringWrappedDuplicatesAscending(t *testing.T) {
	g := mustGrid(t, 16, 8)
	codes, err := g.AtomsCovering(Box{Lo: Point{-4, -4, 0}, Hi: Point{12, 12, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != 4 {
		t.Fatalf("expected the 4 atoms of the z=0 layer once each, got %v", codes)
	}
	for i := 1; i < len(codes); i++ {
		if codes[i] <= codes[i-1] {
			t.Fatalf("codes not strictly ascending: %v", codes)
		}
	}
}
