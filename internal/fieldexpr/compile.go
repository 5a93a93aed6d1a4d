package fieldexpr

import (
	"fmt"
	"math"
	"sort"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/mathx"
	"github.com/turbdb/turbdb/internal/stencil"
)

// maxDepth bounds nested differential operators: each level widens the halo
// band by one stencil half-width, and the atom store fetches whole 8³ atoms
// per layer, so deep nesting becomes I/O-prohibitive long before it becomes
// incorrect.
const maxDepth = 3

// eval computes the node's value at p into out (length ≥ node.ncomp()).
//
// in is the float32 blocks of the reference path or the float64 slabs of a
// scan: the same values, so the same bits.
func eval(n node, st stencil.Stencil, in derived.Inputs, p grid.Point, dx float64, out []float64) {
	switch t := n.(type) {
	case numberNode:
		out[0] = t.v

	case rawNode:
		for c := 0; c < t.nc; c++ {
			out[c] = in.At(t.idx, p, c)
		}

	case unaryNode:
		var buf [9]float64
		arg := buf[:t.arg.ncomp()]
		switch t.kind {
		case opCurl:
			out[0] = derivExpr(t.arg, st, in, p, stencil.AxisY, dx, 2) - derivExpr(t.arg, st, in, p, stencil.AxisZ, dx, 1)
			out[1] = derivExpr(t.arg, st, in, p, stencil.AxisZ, dx, 0) - derivExpr(t.arg, st, in, p, stencil.AxisX, dx, 2)
			out[2] = derivExpr(t.arg, st, in, p, stencil.AxisX, dx, 1) - derivExpr(t.arg, st, in, p, stencil.AxisY, dx, 0)
		case opGrad:
			nc := t.arg.ncomp()
			for i := 0; i < nc; i++ {
				out[i*3+0] = derivExpr(t.arg, st, in, p, stencil.AxisX, dx, i)
				out[i*3+1] = derivExpr(t.arg, st, in, p, stencil.AxisY, dx, i)
				out[i*3+2] = derivExpr(t.arg, st, in, p, stencil.AxisZ, dx, i)
			}
		case opDiv:
			out[0] = derivExpr(t.arg, st, in, p, stencil.AxisX, dx, 0) +
				derivExpr(t.arg, st, in, p, stencil.AxisY, dx, 1) +
				derivExpr(t.arg, st, in, p, stencil.AxisZ, dx, 2)
		case opNorm:
			eval(t.arg, st, in, p, dx, arg)
			var s float64
			for _, v := range arg {
				s += v * v
			}
			out[0] = math.Sqrt(s)
		case opAbs:
			eval(t.arg, st, in, p, dx, arg)
			out[0] = math.Abs(arg[0])
		case opTrace:
			eval(t.arg, st, in, p, dx, arg)
			out[0] = arg[0] + arg[4] + arg[8]
		case opDet:
			eval(t.arg, st, in, p, dx, arg)
			out[0] = mat3Of(arg).Det()
		case opSym:
			eval(t.arg, st, in, p, dx, arg)
			m := mat3Of(arg).Sym()
			storeMat3(m, out)
		case opAntisym:
			eval(t.arg, st, in, p, dx, arg)
			m := mat3Of(arg).Antisym()
			storeMat3(m, out)
		case opQCrit:
			eval(t.arg, st, in, p, dx, arg)
			out[0] = mat3Of(arg).QCriterion()
		case opRInv:
			eval(t.arg, st, in, p, dx, arg)
			_, _, r := mat3Of(arg).Invariants()
			out[0] = r
		case opNeg:
			eval(t.arg, st, in, p, dx, out[:t.nc])
			for c := 0; c < t.nc; c++ {
				out[c] = -out[c]
			}
		}

	case binNode:
		var bufA, bufB [9]float64
		a := bufA[:t.a.ncomp()]
		b := bufB[:t.b.ncomp()]
		switch t.kind {
		case opAdd:
			eval(t.a, st, in, p, dx, a)
			eval(t.b, st, in, p, dx, b)
			for c := 0; c < t.nc; c++ {
				out[c] = a[c] + b[c]
			}
		case opSub:
			eval(t.a, st, in, p, dx, a)
			eval(t.b, st, in, p, dx, b)
			for c := 0; c < t.nc; c++ {
				out[c] = a[c] - b[c]
			}
		case opMul: // a is the scalar side (normalized by typeBinary)
			eval(t.a, st, in, p, dx, a)
			eval(t.b, st, in, p, dx, b)
			for c := 0; c < t.nc; c++ {
				out[c] = a[0] * b[c]
			}
		case opDivide:
			eval(t.a, st, in, p, dx, a)
			eval(t.b, st, in, p, dx, b)
			for c := 0; c < t.nc; c++ {
				out[c] = a[c] / b[0]
			}
		case opDot:
			eval(t.a, st, in, p, dx, a)
			eval(t.b, st, in, p, dx, b)
			var s float64
			for c := range a {
				s += a[c] * b[c]
			}
			out[0] = s
		case opCross:
			eval(t.a, st, in, p, dx, a)
			eval(t.b, st, in, p, dx, b)
			va := mathx.Vec3{X: a[0], Y: a[1], Z: a[2]}
			vb := mathx.Vec3{X: b[0], Y: b[1], Z: b[2]}
			v := va.Cross(vb)
			out[0], out[1], out[2] = v.X, v.Y, v.Z
		case opComp:
			eval(t.a, st, in, p, dx, a)
			out[0] = a[int(t.b.(numberNode).v)]
		}
	}
}

// derivExpr differentiates component comp of subexpression n along axis at
// p, by evaluating n at the stencil's neighbor points.
func derivExpr(n node, st stencil.Stencil, in derived.Inputs, p grid.Point, axis stencil.Axis, dx float64, comp int) float64 {
	var plusBuf, minusBuf [9]float64
	plus := plusBuf[:n.ncomp()]
	minus := minusBuf[:n.ncomp()]
	var sum float64
	for k := 1; k <= st.HalfWidth; k++ {
		var pp, pm grid.Point
		switch axis {
		case stencil.AxisX:
			pp, pm = p.Add(k, 0, 0), p.Add(-k, 0, 0)
		case stencil.AxisY:
			pp, pm = p.Add(0, k, 0), p.Add(0, -k, 0)
		default:
			pp, pm = p.Add(0, 0, k), p.Add(0, 0, -k)
		}
		eval(n, st, in, pp, dx, plus)
		eval(n, st, in, pm, dx, minus)
		sum += st.Coeffs[k-1] * (plus[comp] - minus[comp])
	}
	return sum / dx
}

// mat3Of views a 9-element row-major buffer as a tensor.
func mat3Of(v []float64) mathx.Mat3 {
	return mathx.Mat3{
		{v[0], v[1], v[2]},
		{v[3], v[4], v[5]},
		{v[6], v[7], v[8]},
	}
}

// storeMat3 flattens a tensor into a 9-element buffer.
func storeMat3(m mathx.Mat3, out []float64) {
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			out[i*3+j] = m[i][j]
		}
	}
}

// Compile parses src, type-checks it against the stored fields of raws
// (name → component count) and returns a derived.Field named name, ready to
// register and query. The expression may combine multiple stored fields
// (e.g. the MHD cross-helicity dot(velocity, magnetic)).
func Compile(name, src string, raws map[string]int) (*derived.Field, error) {
	if name == "" {
		return nil, fmt.Errorf("fieldexpr: empty field name")
	}
	root, used, err := parse(src, raws)
	if err != nil {
		return nil, err
	}
	if len(used) == 0 {
		return nil, fmt.Errorf("fieldexpr: expression references no stored field")
	}
	if root.ncomp() != 1 && root.ncomp() != 3 && root.ncomp() != 9 {
		return nil, fmt.Errorf("fieldexpr: unsupported result arity %d", root.ncomp())
	}
	if root.depth() > maxDepth {
		return nil, fmt.Errorf("fieldexpr: %d nested differential operators exceed the limit of %d",
			root.depth(), maxDepth)
	}
	// assign block indices in sorted field order and rewrite the tree
	names := make([]string, 0, len(used))
	for f := range used {
		names = append(names, f)
	}
	sort.Strings(names)
	idx := make(map[string]int, len(names))
	inputs := make([]derived.RawInput, len(names))
	for i, f := range names {
		idx[f] = i
		inputs[i] = derived.RawInput{Name: f, NComp: raws[f]}
	}
	root = assignIndices(root, idx)

	depth := root.depth()
	return &derived.Field{
		Name:         name,
		Raws:         inputs,
		OutComp:      root.ncomp(),
		NeedsStencil: depth > 0,
		// One operator deep, every derivative is a centred difference of
		// values at points: it reads along the axes. A second one
		// differentiates derivatives, whose stencils cross the axes.
		AxisReach: depth <= 1,
		HalfWidthFn: func(order int) (int, error) {
			st, err := stencil.Get(order)
			if err != nil {
				return 0, err
			}
			return depth * st.HalfWidth, nil
		},
		Eval: func(st stencil.Stencil, in derived.Inputs, p grid.Point, dx float64, out []float64) {
			eval(root, st, in, p, dx, out)
		},
	}, nil
}

// assignIndices rewrites rawNodes with their block indices.
func assignIndices(n node, idx map[string]int) node {
	switch t := n.(type) {
	case rawNode:
		t.idx = idx[t.name]
		return t
	case unaryNode:
		t.arg = assignIndices(t.arg, idx)
		return t
	case binNode:
		t.a = assignIndices(t.a, idx)
		t.b = assignIndices(t.b, idx)
		return t
	default:
		return n
	}
}
