// Package derived defines the catalog of fields that threshold queries can
// request: the raw stored fields (velocity, pressure, magnetic) and the
// fields derived from them on demand (vorticity, electric current,
// Q-criterion, R invariant, velocity-gradient norm).
//
// Each derived field has a localized kernel of computation: its value at a
// grid node depends on the stored field at neighboring nodes within the
// kernel half-width (the finite-difference stencil half-width). Raw fields
// have half-width zero — the paper's magnetic-field experiments exploit
// exactly this (no halo I/O, no compute).
//
// The registry is extensible: deployments register additional fields with
// Register, mirroring how the JHTDB adds stored procedures per field.
package derived

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/mathx"
	"github.com/turbdb/turbdb/internal/stencil"
)

// RawInput names one stored field a derived field reads.
type RawInput struct {
	Name  string
	NComp int
}

// EvalFunc computes the derived value at point p from the halo-extended raw
// blocks bls — one per entry of Field.Raws, in order, each guaranteed to
// contain p with the field's kernel half-width margin — and writes OutComp
// values into out. dx is the grid spacing, st the finite-difference stencil
// to use.
type EvalFunc func(st stencil.Stencil, bls []*field.Block, p grid.Point, dx float64, out []float64)

// EvalRowFunc is the bulk form of EvalFunc: it computes the derived value
// at the n x-consecutive points p, p+(1,0,0), …, writing OutComp values per
// point into out[:n·OutComp] (point-major, components interleaved). scratch
// is caller-provided working space of at least n·Field.RowScratchPerPoint
// float64s; implementations may scribble on it freely. The blocks must
// contain the whole run with the kernel half-width margin.
//
// Row kernels must be arithmetically identical to n calls of the per-point
// Eval — the engine treats the two paths as interchangeable and the
// differential tests assert bit-for-bit equality.
type EvalRowFunc func(st stencil.Stencil, bls []*field.Block, p grid.Point, n int, dx float64, out, scratch []float64)

// Field describes one queryable field.
type Field struct {
	// Name is the public field name used in queries ("vorticity", …).
	Name string
	// Raws are the stored fields this one derives from (most fields read
	// one; cross-field quantities such as the MHD cross-helicity read two).
	// For raw fields Raws[0].Name == Name.
	Raws []RawInput
	// OutComp is the component count of the derived value (the threshold
	// compares its Euclidean norm, or absolute value when OutComp == 1).
	OutComp int
	// NeedsStencil reports whether the kernel uses finite differences; if
	// false the kernel half-width is zero regardless of FD order.
	NeedsStencil bool
	// HalfWidthFn overrides the kernel half-width when set — composed
	// expressions (nested differential operators) need multiples of the
	// stencil half-width.
	HalfWidthFn func(order int) (int, error)
	// Eval computes the derived value (see EvalFunc).
	Eval EvalFunc
	// EvalRow, when non-nil, computes a whole x-fastest run of values in
	// one call (see EvalRowFunc). Optional: fields without a row kernel
	// are evaluated point-by-point through Eval. The standard catalog
	// ships row kernels for every field; externally registered fields may
	// add one for the same severalfold speedup.
	EvalRow EvalRowFunc
	// RowScratchPerPoint is the scratch space EvalRow needs, in float64s
	// per point of the run (9 for the gradient-tensor fields, 0 for the
	// curls and for raw copy-through). Zero when EvalRow is nil.
	RowScratchPerPoint int
}

// IsRaw reports whether the field is stored directly (kernel of a single
// point).
func (f *Field) IsRaw() bool { return !f.NeedsStencil }

// HalfWidth returns the kernel half-width in grid points for the given
// finite-difference order.
func (f *Field) HalfWidth(order int) (int, error) {
	if f.HalfWidthFn != nil {
		return f.HalfWidthFn(order)
	}
	if !f.NeedsStencil {
		return 0, nil
	}
	st, err := stencil.Get(order)
	if err != nil {
		return 0, err
	}
	return st.HalfWidth, nil
}

// Norm evaluates the field at p and returns the Euclidean norm (or absolute
// value for scalars). scratch must have length ≥ OutComp.
func (f *Field) Norm(st stencil.Stencil, bls []*field.Block, p grid.Point, dx float64, scratch []float64) float64 {
	f.Eval(st, bls, p, dx, scratch)
	switch f.OutComp {
	case 1:
		v := scratch[0]
		if v < 0 {
			return -v
		}
		return v
	case 3:
		return mathx.Vec3{X: scratch[0], Y: scratch[1], Z: scratch[2]}.Norm()
	default:
		var s float64
		for c := 0; c < f.OutComp; c++ {
			s += float64(scratch[c] * scratch[c])
		}
		return math.Sqrt(s)
	}
}

// NormRow evaluates the field's norm at the n x-consecutive points starting
// at p, writing norms[:n]. vals must have length ≥ n·OutComp and scratch
// length ≥ n·RowScratchPerPoint; both are overwritten. Fields without a row
// kernel fall back to per-point Eval, so NormRow is always available and
// always bit-for-bit identical to n calls of Norm.
//
//turbdb:rowkernel
func (f *Field) NormRow(st stencil.Stencil, bls []*field.Block, p grid.Point, n int, dx float64, norms, vals, scratch []float64) {
	if f.EvalRow != nil {
		f.EvalRow(st, bls, p, n, dx, vals, scratch)
	} else {
		oc := f.OutComp
		q := p
		for i := 0; i < n; i++ {
			f.Eval(st, bls, q, dx, vals[i*oc:(i+1)*oc])
			q.X++
		}
	}
	// The reductions replay Norm's operation order exactly (abs for
	// scalars, x²+y²+z² left-to-right for vectors), each square rounded
	// before it is added as in mathx.Vec3.Dot, so that a fusing compiler
	// (arm64, ppc64le, s390x) cannot round the two shapes differently.
	norms = norms[:n]
	switch f.OutComp {
	case 1:
		for i, v := range vals[:n] {
			if v < 0 {
				v = -v
			}
			norms[i] = v
		}
	case 3:
		for i := range norms {
			v := vals[3*i : 3*i+3 : 3*i+3]
			norms[i] = math.Sqrt(float64(v[0]*v[0]) + float64(v[1]*v[1]) + float64(v[2]*v[2]))
		}
	default:
		oc := f.OutComp
		for i := range norms {
			var s float64
			for _, v := range vals[i*oc : (i+1)*oc] {
				s += float64(v * v)
			}
			norms[i] = math.Sqrt(s)
		}
	}
}

// Registry maps field names to definitions. The zero value is unusable; use
// NewRegistry (which pre-populates the standard catalog) or Standard().
type Registry struct {
	//turbdb:lockrank derived.registry 45
	mu     sync.RWMutex
	fields map[string]*Field // guarded by mu
}

// NewRegistry returns a registry pre-populated with the standard catalog.
func NewRegistry() *Registry {
	fields := make(map[string]*Field)
	for _, f := range standardCatalog() {
		fields[f.Name] = f
	}
	return &Registry{fields: fields}
}

var std = NewRegistry()

// Standard returns the shared standard registry.
func Standard() *Registry { return std }

// Register adds or replaces a field definition.
func (r *Registry) Register(f *Field) error {
	if f == nil || f.Name == "" || f.Eval == nil || f.OutComp <= 0 || len(f.Raws) == 0 {
		return fmt.Errorf("derived: invalid field definition %+v", f)
	}
	for _, raw := range f.Raws {
		if raw.Name == "" || raw.NComp <= 0 {
			return fmt.Errorf("derived: invalid raw input %+v in field %q", raw, f.Name)
		}
	}
	if f.RowScratchPerPoint < 0 {
		return fmt.Errorf("derived: field %q has negative RowScratchPerPoint %d", f.Name, f.RowScratchPerPoint)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fields[f.Name] = f
	return nil
}

// Lookup returns the field definition by name.
func (r *Registry) Lookup(name string) (*Field, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.fields[name]
	if !ok {
		return nil, fmt.Errorf("derived: unknown field %q", name)
	}
	return f, nil
}

// Names lists the registered field names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.fields))
	for n := range r.fields {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Standard field names.
const (
	Velocity   = "velocity"
	Pressure   = "pressure"
	Magnetic   = "magnetic"
	Vorticity  = "vorticity"
	Current    = "current"
	QCriterion = "qcriterion"
	RInvariant = "rinvariant"
	GradNorm   = "gradnorm"
)

// rawEval copies the stored components through unchanged.
func rawEval(nc int) EvalFunc {
	return func(_ stencil.Stencil, bls []*field.Block, p grid.Point, _ float64, out []float64) {
		for c := 0; c < nc; c++ {
			out[c] = bls[0].At(p, c)
		}
	}
}

// curlEval computes ∇×(raw field) per the paper's Eq. (1).
func curlEval(st stencil.Stencil, bls []*field.Block, p grid.Point, dx float64, out []float64) {
	bl := bls[0]
	// (∇×u)_x = ∂u_z/∂y − ∂u_y/∂z, and cyclic permutations.
	out[0] = st.Deriv(bl, p, 2, stencil.AxisY, dx) - st.Deriv(bl, p, 1, stencil.AxisZ, dx)
	out[1] = st.Deriv(bl, p, 0, stencil.AxisZ, dx) - st.Deriv(bl, p, 2, stencil.AxisX, dx)
	out[2] = st.Deriv(bl, p, 1, stencil.AxisX, dx) - st.Deriv(bl, p, 0, stencil.AxisY, dx)
}

// rawEvalRow copies a contiguous run of stored components through unchanged
// (the run is one memcpy-shaped loop thanks to the x-fastest layout).
//
//turbdb:rowkernel
func rawEvalRow(nc int) EvalRowFunc {
	return func(_ stencil.Stencil, bls []*field.Block, p grid.Point, n int, _ float64, out, _ []float64) {
		bl := bls[0]
		base := bl.Offset(p, 0)
		src := bl.Data[base : base+n*nc]
		out = out[:len(src)]
		for i, v := range src {
			out[i] = float64(v)
		}
	}
}

// curlRow is the row kernel for ∇×(raw field): one pass of Stencil.CurlRow,
// which writes the three components where NormRow reads them.
//
//turbdb:rowkernel
func curlRow(st stencil.Stencil, bls []*field.Block, p grid.Point, n int, dx float64, out, _ []float64) {
	st.CurlRow(bls[0], p, n, dx, out)
}

// gradScalarRow builds the row kernel for the scalar gradient-tensor fields
// (Q-criterion, R invariant, gradient norm): one GradientRow pass into a
// 9-wide scratch row (RowScratchPerPoint = 9), then one pass of the row
// reducer, which writes out[i] from grad[9·i : 9·i+9] for the whole run.
//
//turbdb:rowkernel
func gradScalarRow(reduce func(grad, out []float64)) EvalRowFunc {
	return func(st stencil.Stencil, bls []*field.Block, p grid.Point, n int, dx float64, out, scratch []float64) {
		grad := scratch[:9*n]
		st.GradientRow(bls[0], p, n, dx, grad)
		reduce(grad, out[:n])
	}
}

// standardCatalog builds the built-in field definitions.
func standardCatalog() []*Field {
	return []*Field{
		{
			Name: Velocity, Raws: []RawInput{{Velocity, 3}}, OutComp: 3,
			Eval: rawEval(3), EvalRow: rawEvalRow(3),
		},
		{
			Name: Pressure, Raws: []RawInput{{Pressure, 1}}, OutComp: 1,
			Eval: rawEval(1), EvalRow: rawEvalRow(1),
		},
		{
			Name: Magnetic, Raws: []RawInput{{Magnetic, 3}}, OutComp: 3,
			Eval: rawEval(3), EvalRow: rawEvalRow(3),
		},
		{
			// Vorticity ω = ∇×v: 3 components, examines 6 of the 9 gradient
			// components in pairs (paper Sec. 5.4).
			Name: Vorticity, Raws: []RawInput{{Velocity, 3}}, OutComp: 3, NeedsStencil: true,
			Eval: curlEval, EvalRow: curlRow,
		},
		{
			// Electric current j = ∇×B (MHD datasets).
			Name: Current, Raws: []RawInput{{Magnetic, 3}}, OutComp: 3, NeedsStencil: true,
			Eval: curlEval, EvalRow: curlRow,
		},
		{
			// Q-criterion: non-linear combination of all 9 gradient
			// components — the full velocity gradient is computed first,
			// which is why its compute time exceeds the vorticity's.
			Name: QCriterion, Raws: []RawInput{{Velocity, 3}}, OutComp: 1, NeedsStencil: true,
			Eval: func(st stencil.Stencil, bls []*field.Block, p grid.Point, dx float64, out []float64) {
				g := mathx.Mat3(st.Gradient(bls[0], p, dx))
				out[0] = g.QCriterion()
			},
			EvalRow:            gradScalarRow(mathx.QCriterionRow),
			RowScratchPerPoint: 9,
		},
		{
			// Third velocity-gradient invariant R = −det(∇v).
			Name: RInvariant, Raws: []RawInput{{Velocity, 3}}, OutComp: 1, NeedsStencil: true,
			Eval: func(st stencil.Stencil, bls []*field.Block, p grid.Point, dx float64, out []float64) {
				g := mathx.Mat3(st.Gradient(bls[0], p, dx))
				_, _, r := g.Invariants()
				out[0] = r
			},
			EvalRow:            gradScalarRow(mathx.RInvariantRow),
			RowScratchPerPoint: 9,
		},
		{
			// Frobenius norm of the velocity gradient tensor.
			Name: GradNorm, Raws: []RawInput{{Velocity, 3}}, OutComp: 1, NeedsStencil: true,
			Eval: func(st stencil.Stencil, bls []*field.Block, p grid.Point, dx float64, out []float64) {
				g := mathx.Mat3(st.Gradient(bls[0], p, dx))
				out[0] = g.FrobeniusNorm()
			},
			EvalRow:            gradScalarRow(mathx.FrobeniusNormRow),
			RowScratchPerPoint: 9,
		},
	}
}
