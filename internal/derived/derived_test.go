package derived

import (
	"math"
	"testing"

	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/mathx"
	"github.com/turbdb/turbdb/internal/stencil"
)

// buildPeriodicBlock fills a halo-extended block over [0,n)³ expanded by h,
// evaluating f at wrapped physical coordinates x = 2π·i/n.
func buildPeriodicBlock(n, h, nc int, dx float64, f func(x, y, z float64, out []float64)) *field.Block {
	g, err := grid.New(n, 8, dx)
	if err != nil {
		panic(err)
	}
	bl := field.NewBlock(g.Domain().Expand(h), nc)
	bl.Fill(func(p grid.Point, vals []float64) {
		f(float64(p.X)*dx, float64(p.Y)*dx, float64(p.Z)*dx, vals)
	})
	return bl
}

func TestRegistryLookup(t *testing.T) {
	r := Standard()
	for _, name := range []string{Velocity, Pressure, Magnetic, Vorticity, Current, QCriterion, RInvariant, GradNorm} {
		f, err := r.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if f.Name != name {
			t.Errorf("Lookup(%q).Name = %q", name, f.Name)
		}
	}
	if _, err := r.Lookup("no-such-field"); err == nil {
		t.Error("Lookup accepted unknown field")
	}
	names := r.Names()
	if len(names) < 8 {
		t.Errorf("Names() = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Errorf("Names not sorted: %v", names)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(nil); err == nil {
		t.Error("Register(nil) accepted")
	}
	if err := r.Register(&Field{Name: "x"}); err == nil {
		t.Error("Register without Eval accepted")
	}
	f := &Field{Name: "custom", Raws: []RawInput{{Velocity, 3}}, OutComp: 1,
		Eval: func(_ stencil.Stencil, in Inputs, p grid.Point, _ float64, out []float64) {
			out[0] = in.At(0, p, 0)
		}}
	if err := r.Register(f); err != nil {
		t.Fatalf("Register valid field: %v", err)
	}
	got, err := r.Lookup("custom")
	if err != nil || got != f {
		t.Errorf("Lookup after Register: %v %v", got, err)
	}
}

func TestHalfWidth(t *testing.T) {
	r := Standard()
	vel, _ := r.Lookup(Velocity)
	if hw, err := vel.HalfWidth(4); err != nil || hw != 0 {
		t.Errorf("raw field half-width = %d, %v", hw, err)
	}
	if !vel.IsRaw() {
		t.Error("velocity should be raw")
	}
	vort, _ := r.Lookup(Vorticity)
	if vort.IsRaw() {
		t.Error("vorticity should not be raw")
	}
	for _, o := range []int{2, 4, 6, 8} {
		hw, err := vort.HalfWidth(o)
		if err != nil || hw != o/2 {
			t.Errorf("vorticity half-width(order %d) = %d, %v", o, hw, err)
		}
	}
	if _, err := vort.HalfWidth(5); err == nil {
		t.Error("HalfWidth accepted invalid order")
	}
}

// Taylor–Green-like field: u = (sin x·cos y, −cos x·sin y, 0) is
// divergence-free with analytic vorticity ω = (0, 0, −2·sin x·sin y)... let
// us verify against the analytic curl.
func TestVorticityAnalytic(t *testing.T) {
	n := 32
	dx := 2 * math.Pi / float64(n)
	st := stencil.MustGet(8)
	bl := buildPeriodicBlock(n, st.HalfWidth, 3, dx, func(x, y, z float64, out []float64) {
		out[0] = math.Sin(x) * math.Cos(y)
		out[1] = -math.Cos(x) * math.Sin(y)
		out[2] = 0
	})
	vort, _ := Standard().Lookup(Vorticity)
	out := make([]float64, 3)
	for _, p := range []grid.Point{{X: 3, Y: 5, Z: 7}, {X: 10, Y: 2, Z: 0}, {X: 31, Y: 31, Z: 16}} {
		vort.Eval(st, Blocks(bl), p, dx, out)
		x := float64(p.X) * dx
		y := float64(p.Y) * dx
		wantZ := 2 * math.Sin(x) * math.Sin(y)
		if math.Abs(out[0]) > 1e-4 || math.Abs(out[1]) > 1e-4 || math.Abs(out[2]-wantZ) > 1e-3 {
			t.Errorf("vorticity at %v = %v, want (0,0,%g)", p, out, wantZ)
		}
	}
}

// ABC flow is a Beltrami field: ∇×u = u exactly. A strong analytic check of
// the curl evaluator, and "current" shares the same kernel.
func TestCurlOfABCFlowIsIdentity(t *testing.T) {
	n := 64
	dx := 2 * math.Pi / float64(n)
	st := stencil.MustGet(8)
	A, B, C := 1.1, 0.7, 0.4
	abc := func(x, y, z float64, out []float64) {
		out[0] = A*math.Sin(z) + C*math.Cos(y)
		out[1] = B*math.Sin(x) + A*math.Cos(z)
		out[2] = C*math.Sin(y) + B*math.Cos(x)
	}
	bl := buildPeriodicBlock(n, st.HalfWidth, 3, dx, abc)
	cur, _ := Standard().Lookup(Current)
	out := make([]float64, 3)
	want := make([]float64, 3)
	for _, p := range []grid.Point{{X: 1, Y: 2, Z: 3}, {X: 20, Y: 40, Z: 60}, {X: 63, Y: 0, Z: 31}} {
		cur.Eval(st, Blocks(bl), p, dx, out)
		abc(float64(p.X)*dx, float64(p.Y)*dx, float64(p.Z)*dx, want)
		for c := 0; c < 3; c++ {
			if math.Abs(out[c]-want[c]) > 1e-3 {
				t.Errorf("curl(ABC) at %v comp %d = %g, want %g", p, c, out[c], want[c])
			}
		}
	}
}

// For a pure rigid rotation u = ω₀×x the Q-criterion is ½‖Ω‖² = |ω₀|²
// (no strain), and R = −det(∇u) = 0.
func TestQCriterionRigidRotation(t *testing.T) {
	n := 16
	dx := 0.01 // small, local, non-periodic sample is fine within the halo
	st := stencil.MustGet(4)
	w := [3]float64{0.5, -0.25, 1.0}
	bl := field.NewBlock(grid.Box{
		Lo: grid.Point{X: -st.HalfWidth, Y: -st.HalfWidth, Z: -st.HalfWidth},
		Hi: grid.Point{X: n, Y: n, Z: n},
	}, 3)
	bl.Fill(func(p grid.Point, vals []float64) {
		x, y, z := float64(p.X)*dx, float64(p.Y)*dx, float64(p.Z)*dx
		vals[0] = w[1]*z - w[2]*y
		vals[1] = w[2]*x - w[0]*z
		vals[2] = w[0]*y - w[1]*x
	})
	q, _ := Standard().Lookup(QCriterion)
	r, _ := Standard().Lookup(RInvariant)
	out := make([]float64, 1)
	p := grid.Point{X: 4, Y: 4, Z: 4}
	q.Eval(st, Blocks(bl), p, dx, out)
	wantQ := w[0]*w[0] + w[1]*w[1] + w[2]*w[2]
	if math.Abs(out[0]-wantQ) > 1e-4 {
		t.Errorf("Q of rigid rotation = %g, want %g", out[0], wantQ)
	}
	r.Eval(st, Blocks(bl), p, dx, out)
	if math.Abs(out[0]) > 1e-6 {
		t.Errorf("R of rigid rotation = %g, want 0", out[0])
	}
}

func TestGradNormLinearShear(t *testing.T) {
	// u = (γ·y, 0, 0): ∇u has a single entry γ → Frobenius norm |γ|.
	gamma := 2.5
	st := stencil.MustGet(2)
	bl := field.NewBlock(grid.Box{
		Lo: grid.Point{X: -1, Y: -1, Z: -1},
		Hi: grid.Point{X: 4, Y: 4, Z: 4},
	}, 3)
	bl.Fill(func(p grid.Point, vals []float64) {
		vals[0] = gamma * float64(p.Y)
		vals[1], vals[2] = 0, 0
	})
	gn, _ := Standard().Lookup(GradNorm)
	out := make([]float64, 1)
	gn.Eval(st, Blocks(bl), grid.Point{X: 1, Y: 1, Z: 1}, 1.0, out)
	if math.Abs(out[0]-gamma) > 1e-5 {
		t.Errorf("gradnorm = %g, want %g", out[0], gamma)
	}
}

func TestRawEvalPassThrough(t *testing.T) {
	st := stencil.MustGet(2)
	bl := field.NewBlock(grid.Box{Hi: grid.Point{X: 2, Y: 2, Z: 2}}, 3)
	p := grid.Point{X: 1, Y: 0, Z: 1}
	bl.SetVec3(p, mathx.Vec3{X: 1.5, Y: -2, Z: 4})
	vel, _ := Standard().Lookup(Velocity)
	out := make([]float64, 3)
	vel.Eval(st, Blocks(bl), p, 1, out)
	if out[0] != 1.5 || out[1] != -2 || out[2] != 4 {
		t.Errorf("raw eval = %v", out)
	}
}

func TestNormScalarAndVector(t *testing.T) {
	st := stencil.MustGet(2)
	bl := field.NewBlock(grid.Box{Hi: grid.Point{X: 1, Y: 1, Z: 1}}, 3)
	bl.SetVec3(grid.Point{}, mathx.Vec3{X: 3, Y: 4})
	vel, _ := Standard().Lookup(Velocity)
	scratch := make([]float64, 3)
	if got := vel.Norm(st, []*field.Block{bl}, grid.Point{}, 1, scratch); math.Abs(got-5) > 1e-9 {
		t.Errorf("vector Norm = %g, want 5", got)
	}
	sb := field.NewBlock(grid.Box{Hi: grid.Point{X: 1, Y: 1, Z: 1}}, 1)
	sb.Set(grid.Point{}, 0, -7)
	pr, _ := Standard().Lookup(Pressure)
	if got := pr.Norm(st, []*field.Block{sb}, grid.Point{}, 1, scratch); got != 7 {
		t.Errorf("scalar Norm = %g, want 7", got)
	}
}

func BenchmarkVorticityEval(b *testing.B) {
	st := stencil.MustGet(4)
	bl := buildPeriodicBlock(16, st.HalfWidth, 3, 0.1, func(x, y, z float64, out []float64) {
		out[0], out[1], out[2] = math.Sin(x), math.Cos(y), math.Sin(z)
	})
	vort, _ := Standard().Lookup(Vorticity)
	out := make([]float64, 3)
	p := grid.Point{X: 8, Y: 8, Z: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vort.Eval(st, Blocks(bl), p, 0.1, out)
	}
}

func BenchmarkQCriterionEval(b *testing.B) {
	st := stencil.MustGet(4)
	bl := buildPeriodicBlock(16, st.HalfWidth, 3, 0.1, func(x, y, z float64, out []float64) {
		out[0], out[1], out[2] = math.Sin(x), math.Cos(y), math.Sin(z)
	})
	q, _ := Standard().Lookup(QCriterion)
	out := make([]float64, 1)
	p := grid.Point{X: 8, Y: 8, Z: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Eval(st, Blocks(bl), p, 0.1, out)
	}
}
