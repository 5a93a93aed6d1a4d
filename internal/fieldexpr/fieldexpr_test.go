package fieldexpr

import (
	"math"
	"strings"
	"testing"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/stencil"
)

var testRaws = map[string]int{"velocity": 3, "pressure": 1, "magnetic": 3}

// abcBlock builds a periodic halo-extended block of the ABC (Beltrami) flow
// — a field whose curl equals itself, giving exact analytic checks.
func abcBlock(n, halo int, dx float64) *field.Block {
	A, B, C := 1.1, 0.7, 0.4
	bl := field.NewBlock(grid.Box{
		Lo: grid.Point{X: -halo, Y: -halo, Z: -halo},
		Hi: grid.Point{X: n + halo, Y: n + halo, Z: n + halo},
	}, 3)
	bl.Fill(func(p grid.Point, vals []float64) {
		x, y, z := float64(p.X)*dx, float64(p.Y)*dx, float64(p.Z)*dx
		vals[0] = A*math.Sin(z) + C*math.Cos(y)
		vals[1] = B*math.Sin(x) + A*math.Cos(z)
		vals[2] = C*math.Sin(y) + B*math.Cos(x)
	})
	return bl
}

// scalarBlock builds sin(x)·cos(2y)·sin(z) with halo.
func scalarBlock(n, halo int, dx float64) *field.Block {
	bl := field.NewBlock(grid.Box{
		Lo: grid.Point{X: -halo, Y: -halo, Z: -halo},
		Hi: grid.Point{X: n + halo, Y: n + halo, Z: n + halo},
	}, 1)
	bl.Fill(func(p grid.Point, vals []float64) {
		x, y, z := float64(p.X)*dx, float64(p.Y)*dx, float64(p.Z)*dx
		vals[0] = math.Sin(x) * math.Cos(2*y) * math.Sin(z)
	})
	return bl
}

func compileOK(t *testing.T, src string) interface {
	HalfWidth(order int) (int, error)
} {
	t.Helper()
	f, err := Compile("t", src, testRaws)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return f
}

func TestCompileErrors(t *testing.T) {
	bad := []struct {
		src, wantSub string
	}{
		{"", "unexpected"},
		{"curl(pressure)", "vector"},
		{"grad(grad(velocity))", "scalar or vector"},
		{"div(pressure)", "vector"},
		{"trace(velocity)", "tensor"},
		{"velocity + pressure", "matching components"},
		{"velocity * magnetic", "scalar operand"},
		{"velocity / velocity", "scalar divisor"},
		{"cross(pressure, velocity)", "two vectors"},
		{"unknownfield", "unknown field"},
		{"frob(velocity)", "unknown function"},
		{"curl(velocity", `")"`},
		{"curl(velocity))", "trailing"},
		{"dot(velocity)", "2 arguments"},
		{"curl(velocity, velocity)", "1 argument"},
		{"comp(velocity, 5)", "out of range"},
		{"comp(velocity, pressure)", "literal"},
		{"3.5", "references no stored field"},
		{"curl(curl(curl(curl(velocity))))", "exceed"},
		{"velocity @", "unexpected character"},
	}
	for _, c := range bad {
		_, err := Compile("t", c.src, testRaws)
		if err == nil {
			t.Errorf("Compile(%q) accepted", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Compile(%q) error %q does not mention %q", c.src, err, c.wantSub)
		}
	}
	if _, err := Compile("", "curl(velocity)", testRaws); err == nil {
		t.Error("empty name accepted")
	}
}

func TestHalfWidthScalesWithDepth(t *testing.T) {
	cases := []struct {
		src   string
		depth int
	}{
		{"velocity", 0},
		{"norm(velocity)", 0},
		{"curl(velocity)", 1},
		{"norm(grad(pressure))", 1},
		{"div(grad(pressure))", 2},
		{"curl(curl(velocity))", 2},
		{"norm(grad(norm(curl(velocity))))", 2},
	}
	for _, c := range cases {
		f, err := Compile("t", c.src, testRaws)
		if err != nil {
			t.Fatalf("Compile(%q): %v", c.src, err)
		}
		for _, order := range []int{2, 4, 8} {
			hw, err := f.HalfWidth(order)
			if err != nil {
				t.Fatal(err)
			}
			if hw != c.depth*order/2 {
				t.Errorf("%q at order %d: half-width %d, want %d", c.src, order, hw, c.depth*order/2)
			}
		}
		if (f.NeedsStencil && c.depth == 0) || (!f.NeedsStencil && c.depth > 0) {
			t.Errorf("%q: NeedsStencil = %v at depth %d", c.src, f.NeedsStencil, c.depth)
		}
	}
}

// curl(velocity) compiled from the expression must agree with the ABC
// analytic identity ∇×u = u.
func TestCurlExpressionOnABCFlow(t *testing.T) {
	n := 64
	dx := 2 * math.Pi / float64(n)
	st := stencil.MustGet(8)
	bl := abcBlock(n, st.HalfWidth, dx)
	f, err := Compile("w", "curl(velocity)", testRaws)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 3)
	for _, p := range []grid.Point{{X: 5, Y: 9, Z: 31}, {X: 0, Y: 63, Z: 2}} {
		f.Eval(st, derived.Blocks(bl), p, dx, out)
		for c := 0; c < 3; c++ {
			if math.Abs(out[c]-bl.At(p, c)) > 1e-3 {
				t.Errorf("curl at %v comp %d = %g, want %g", p, c, out[c], bl.At(p, c))
			}
		}
	}
}

// The Lamb vector u×(∇×u) of a Beltrami flow is identically zero (u ∥ ∇×u).
func TestLambVectorOfBeltramiIsZero(t *testing.T) {
	n := 64
	dx := 2 * math.Pi / float64(n)
	st := stencil.MustGet(8)
	bl := abcBlock(n, st.HalfWidth, dx)
	f, err := Compile("lamb", "cross(velocity, curl(velocity))", testRaws)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 3)
	p := grid.Point{X: 17, Y: 40, Z: 8}
	f.Eval(st, derived.Blocks(bl), p, dx, out)
	for c := 0; c < 3; c++ {
		if math.Abs(out[c]) > 1e-3 {
			t.Errorf("lamb vector comp %d = %g, want ≈0", c, out[c])
		}
	}
}

// div(grad(p)) must equal the analytic Laplacian — a genuinely nested
// differential operator exercising the widened halo.
func TestLaplacianByComposition(t *testing.T) {
	n := 64
	dx := 2 * math.Pi / float64(n)
	st := stencil.MustGet(8)
	f, err := Compile("lap", "div(grad(pressure))", testRaws)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := f.HalfWidth(8)
	if err != nil {
		t.Fatal(err)
	}
	if hw != 8 {
		t.Fatalf("laplacian half-width %d, want 8 (2 levels × 4)", hw)
	}
	bl := scalarBlock(n, hw, dx)
	out := make([]float64, 1)
	p := grid.Point{X: 13, Y: 27, Z: 44}
	f.Eval(st, derived.Blocks(bl), p, dx, out)
	// ∇²[sin x · cos 2y · sin z] = −(1+4+1)·f = −6f
	want := -6 * bl.At(p, 0)
	if math.Abs(out[0]-want) > 2e-2 {
		t.Errorf("laplacian = %g, want %g", out[0], want)
	}
}

// qcrit(grad(velocity)) from the expression equals the built-in field.
func TestQCritExpressionMatchesBuiltin(t *testing.T) {
	n := 32
	dx := 2 * math.Pi / float64(n)
	st := stencil.MustGet(4)
	bl := abcBlock(n, st.HalfWidth, dx)
	f, err := Compile("q", "qcrit(grad(velocity))", testRaws)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 1)
	p := grid.Point{X: 7, Y: 21, Z: 3}
	f.Eval(st, derived.Blocks(bl), p, dx, out)
	// reference via stencil.Gradient
	g := st.Gradient(bl, p, dx)
	var m [3][3]float64 = g
	// Q = ½(‖Ω‖² − ‖S‖²)
	var s2, o2 float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			s := 0.5 * (m[i][j] + m[j][i])
			o := 0.5 * (m[i][j] - m[j][i])
			s2 += s * s
			o2 += o * o
		}
	}
	want := 0.5 * (o2 - s2)
	if math.Abs(out[0]-want) > 1e-9 {
		t.Errorf("qcrit = %g, want %g", out[0], want)
	}
}

// Arithmetic: 2*pressure - pressure == abs on sign-flipped field etc.
func TestArithmetic(t *testing.T) {
	n := 8
	dx := 0.5
	st := stencil.MustGet(2)
	bl := scalarBlock(n, 1, dx)
	p := grid.Point{X: 3, Y: 4, Z: 5}
	v := bl.At(p, 0)

	cases := []struct {
		src  string
		want float64
	}{
		{"2*pressure - pressure", v},
		{"pressure/2 + pressure/2", v},
		{"-pressure", -v},
		{"abs(-3*pressure)", math.Abs(3 * v)},
		{"(pressure + 1) - 1", v},
		{"norm(pressure)", math.Abs(v)},
		{"dot(pressure, pressure)", v * v},
		{"comp(grad(pressure), 1)", derivRef(bl, p, dx, st)},
	}
	out := make([]float64, 1)
	for _, c := range cases {
		f, err := Compile("t", c.src, testRaws)
		if err != nil {
			t.Fatalf("Compile(%q): %v", c.src, err)
		}
		f.Eval(st, derived.Blocks(bl), p, dx, out)
		if math.Abs(out[0]-c.want) > 1e-9 {
			t.Errorf("%q = %g, want %g", c.src, out[0], c.want)
		}
	}
}

// derivRef computes ∂p/∂y with the stencil directly.
func derivRef(bl *field.Block, p grid.Point, dx float64, st stencil.Stencil) float64 {
	return st.Deriv(bl, p, 0, stencil.AxisY, dx)
}

func TestTensorOps(t *testing.T) {
	n := 16
	dx := 2 * math.Pi / float64(n)
	st := stencil.MustGet(2)
	bl := abcBlock(n, st.HalfWidth, dx)
	p := grid.Point{X: 4, Y: 9, Z: 2}

	// trace(grad(u)) = div(u) = 0 for the incompressible ABC flow
	f, _ := Compile("t", "trace(grad(velocity))", testRaws)
	out := make([]float64, 9)
	f.Eval(st, derived.Blocks(bl), p, dx, out)
	if math.Abs(out[0]) > 1e-9 {
		t.Errorf("trace(grad(u)) = %g, want 0", out[0])
	}
	// sym + antisym must reconstruct grad
	fs, _ := Compile("s", "sym(grad(velocity)) + antisym(grad(velocity))", testRaws)
	fg, _ := Compile("g", "grad(velocity)", testRaws)
	sum := make([]float64, 9)
	gr := make([]float64, 9)
	fs.Eval(st, derived.Blocks(bl), p, dx, sum)
	fg.Eval(st, derived.Blocks(bl), p, dx, gr)
	for c := 0; c < 9; c++ {
		if math.Abs(sum[c]-gr[c]) > 1e-12 {
			t.Errorf("sym+antisym comp %d = %g, want %g", c, sum[c], gr[c])
		}
	}
	// det and rinv: rinv = -det
	fd, _ := Compile("d", "det(grad(velocity))", testRaws)
	fr, _ := Compile("r", "rinv(grad(velocity))", testRaws)
	d := make([]float64, 1)
	r := make([]float64, 1)
	fd.Eval(st, derived.Blocks(bl), p, dx, d)
	fr.Eval(st, derived.Blocks(bl), p, dx, r)
	if math.Abs(d[0]+r[0]) > 1e-12 {
		t.Errorf("rinv %g != -det %g", r[0], d[0])
	}
}

func TestNumbersAndWhitespace(t *testing.T) {
	f, err := Compile("t", "  1.5e1 * pressure \n+ 2 * pressure ", testRaws)
	if err != nil {
		t.Fatal(err)
	}
	bl := scalarBlock(8, 0, 1)
	st := stencil.MustGet(2)
	out := make([]float64, 1)
	p := grid.Point{X: 1, Y: 2, Z: 3}
	f.Eval(st, derived.Blocks(bl), p, 1, out)
	want := 17 * bl.At(p, 0)
	if math.Abs(out[0]-want) > 1e-9 {
		t.Errorf("got %g, want %g", out[0], want)
	}
}

func BenchmarkCompiledVorticity(b *testing.B) {
	st := stencil.MustGet(4)
	bl := abcBlock(16, st.HalfWidth, 0.1)
	f, err := Compile("w", "norm(curl(velocity))", testRaws)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, 1)
	p := grid.Point{X: 8, Y: 8, Z: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Eval(st, derived.Blocks(bl), p, 0.1, out)
	}
}

// Cross-field expressions: dot(velocity, magnetic) must see both blocks in
// sorted-name order (magnetic before velocity).
func TestMultiFieldExpression(t *testing.T) {
	st := stencil.MustGet(2)
	dx := 0.3
	vel := abcBlock(8, st.HalfWidth, dx)
	mag := scalarToVec(scalarBlock(8, st.HalfWidth, dx))
	f, err := Compile("xh", "dot(velocity, magnetic)", testRaws)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Raws) != 2 || f.Raws[0].Name != "magnetic" || f.Raws[1].Name != "velocity" {
		t.Fatalf("raw inputs = %v", f.Raws)
	}
	out := make([]float64, 1)
	p := grid.Point{X: 3, Y: 5, Z: 2}
	f.Eval(st, derived.Blocks(mag, vel), p, dx, out)
	want := vel.At(p, 0)*mag.At(p, 0) + vel.At(p, 1)*mag.At(p, 1) + vel.At(p, 2)*mag.At(p, 2)
	if math.Abs(out[0]-want) > 1e-9 {
		t.Errorf("cross-helicity = %g, want %g", out[0], want)
	}
	// differential op on one of two fields: cross(velocity, curl(magnetic))
	f2, err := Compile("mt", "cross(velocity, curl(magnetic))", testRaws)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := f2.HalfWidth(2); got != 1 {
		t.Errorf("half-width %d", got)
	}
}

// scalarToVec replicates a scalar block into 3 components for test inputs.
func scalarToVec(s *field.Block) *field.Block {
	out := field.NewBlock(s.Bounds, 3)
	var p grid.Point
	for p.Z = s.Bounds.Lo.Z; p.Z < s.Bounds.Hi.Z; p.Z++ {
		for p.Y = s.Bounds.Lo.Y; p.Y < s.Bounds.Hi.Y; p.Y++ {
			for p.X = s.Bounds.Lo.X; p.X < s.Bounds.Hi.X; p.X++ {
				v := s.At(p, 0)
				out.Set(p, 0, v)
				out.Set(p, 1, 2*v)
				out.Set(p, 2, -v)
			}
		}
	}
	return out
}
