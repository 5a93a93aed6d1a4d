// Package mathx provides the small dense linear-algebra helpers used by the
// derived-field evaluators: 3-vectors, 3×3 tensors, and the velocity-gradient
// invariants (P, Q, R) that turbulence researchers threshold on.
//
// All types are plain value types; none of the operations allocate.
//
// Every product that feeds an addition or subtraction is wrapped in an
// explicit float64 conversion. The Go spec lets a compiler fuse x*y + z into
// one instruction that rounds once (arm64, ppc64le and s390x do), and the
// engine's contract is that a value is the same bits whichever function
// shape computed it — Mat3.QCriterion or QCriterionRow, an arm64 node or the
// amd64 node beside it. The conversion rounds the product and so forbids the
// fusion; it compiles to nothing where no fusion would have happened.
package mathx

import "math"

// Vec3 is a 3-component vector.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product v·w.
func (v Vec3) Dot(w Vec3) float64 {
	return float64(v.X*w.X) + float64(v.Y*w.Y) + float64(v.Z*w.Z)
}

// Cross returns the cross product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		float64(v.Y*w.Z) - float64(v.Z*w.Y),
		float64(v.Z*w.X) - float64(v.X*w.Z),
		float64(v.X*w.Y) - float64(v.Y*w.X),
	}
}

// Norm returns the Euclidean norm ‖v‖.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared norm ‖v‖².
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Mat3 is a 3×3 tensor stored row-major: M[i][j] = ∂u_i/∂x_j for a
// velocity-gradient tensor.
type Mat3 [3][3]float64

// Add returns m + n.
func (m Mat3) Add(n Mat3) Mat3 {
	var out Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			out[i][j] = m[i][j] + n[i][j]
		}
	}
	return out
}

// Scale returns s·m.
func (m Mat3) Scale(s float64) Mat3 {
	var out Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			out[i][j] = s * m[i][j]
		}
	}
	return out
}

// Mul returns the matrix product m·n.
func (m Mat3) Mul(n Mat3) Mat3 {
	var out Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			s := 0.0
			for k := 0; k < 3; k++ {
				s += float64(m[i][k] * n[k][j])
			}
			out[i][j] = s
		}
	}
	return out
}

// Transpose returns mᵀ.
func (m Mat3) Transpose() Mat3 {
	var out Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			out[i][j] = m[j][i]
		}
	}
	return out
}

// Trace returns tr(m).
func (m Mat3) Trace() float64 { return m[0][0] + m[1][1] + m[2][2] }

// Det returns det(m).
func (m Mat3) Det() float64 {
	return float64(m[0][0]*(float64(m[1][1]*m[2][2])-float64(m[1][2]*m[2][1]))) -
		float64(m[0][1]*(float64(m[1][0]*m[2][2])-float64(m[1][2]*m[2][0]))) +
		float64(m[0][2]*(float64(m[1][0]*m[2][1])-float64(m[1][1]*m[2][0])))
}

// FrobeniusNorm returns ‖m‖_F = sqrt(Σ m_ij²).
func (m Mat3) FrobeniusNorm() float64 {
	s := 0.0
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			s += float64(m[i][j] * m[i][j])
		}
	}
	return math.Sqrt(s)
}

// Sym returns the symmetric part (m + mᵀ)/2 — the strain-rate tensor when m
// is a velocity gradient.
func (m Mat3) Sym() Mat3 {
	var out Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			out[i][j] = 0.5 * (m[i][j] + m[j][i])
		}
	}
	return out
}

// Antisym returns the antisymmetric part (m - mᵀ)/2 — the rotation-rate
// tensor when m is a velocity gradient.
func (m Mat3) Antisym() Mat3 {
	var out Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			out[i][j] = 0.5 * (m[i][j] - m[j][i])
		}
	}
	return out
}

// Curl extracts the curl vector from a gradient tensor with
// m[i][j] = ∂u_i/∂x_j:
//
//	(∇×u)_x = ∂u_z/∂y − ∂u_y/∂z, and cyclic.
//
// This is Eq. (1) of the paper applied to a precomputed gradient.
func (m Mat3) Curl() Vec3 {
	return Vec3{
		X: m[2][1] - m[1][2],
		Y: m[0][2] - m[2][0],
		Z: m[1][0] - m[0][1],
	}
}

// Invariants returns the three principal invariants (P, Q, R) of the tensor:
//
//	P = −tr(m)
//	Q = ½(tr(m)² − tr(m²))
//	R = −det(m)
//
// For an incompressible velocity gradient P ≈ 0 and the paper's "second and
// third velocity gradient invariants (Q and R)" are exactly Q and R here.
func (m Mat3) Invariants() (p, q, r float64) {
	tr := m.Trace()
	tr2 := m.Mul(m).Trace()
	return -tr, 0.5 * (float64(tr*tr) - tr2), -m.Det()
}

// QCriterion returns Q = ½(‖Ω‖² − ‖S‖²) where S and Ω are the symmetric and
// antisymmetric parts of m. Positive Q marks rotation-dominated (vortical)
// regions. For trace-free m this equals the second invariant from
// Invariants; the explicit strain/rotation form is the one evaluated by the
// database because it is meaningful for slightly compressible data too.
func (m Mat3) QCriterion() float64 {
	s := m.Sym()
	o := m.Antisym()
	so := o.FrobeniusNorm()
	ss := s.FrobeniusNorm()
	return 0.5 * (float64(so*so) - float64(ss*ss))
}

// The row reducers below are the bulk forms of the tensor scalars the field
// catalog thresholds on: grad holds one row-major tensor per point,
// grad[9·i + 3·r + c] = ∂u_r/∂x_c, and out[i] receives the scalar of the
// i-th tensor. Each is its Mat3 method expanded — same terms, same r, c
// order, same square roots, sums started at 0.0 — so the two agree bit for
// bit on every input, infinities and NaNs included (a term such as the
// antisymmetric diagonal ½(g−g) is zero for finite g and NaN for ±Inf, so
// none may be dropped).

// symSq and antiSq square one entry of the symmetric and the antisymmetric
// part of a tensor with m[r][c] = a and m[c][r] = b.
//
//turbdb:rowkernel
func symSq(a, b float64) float64 { s := 0.5 * (a + b); return float64(s * s) }

//turbdb:rowkernel
func antiSq(a, b float64) float64 { o := 0.5 * (a - b); return float64(o * o) }

// QCriterionRow is Mat3.QCriterion over a row of tensors.
//
//turbdb:rowkernel
func QCriterionRow(grad, out []float64) {
	for i := range out {
		g := (*[9]float64)(grad[9*i:])
		so := math.Sqrt(0.0 +
			antiSq(g[0], g[0]) + antiSq(g[1], g[3]) + antiSq(g[2], g[6]) +
			antiSq(g[3], g[1]) + antiSq(g[4], g[4]) + antiSq(g[5], g[7]) +
			antiSq(g[6], g[2]) + antiSq(g[7], g[5]) + antiSq(g[8], g[8]))
		ss := math.Sqrt(0.0 +
			symSq(g[0], g[0]) + symSq(g[1], g[3]) + symSq(g[2], g[6]) +
			symSq(g[3], g[1]) + symSq(g[4], g[4]) + symSq(g[5], g[7]) +
			symSq(g[6], g[2]) + symSq(g[7], g[5]) + symSq(g[8], g[8]))
		out[i] = 0.5 * (float64(so*so) - float64(ss*ss))
	}
}

// RInvariantRow is the third invariant of Mat3.Invariants, R = −det, over a
// row of tensors.
//
//turbdb:rowkernel
func RInvariantRow(grad, out []float64) {
	for i := range out {
		g := (*[9]float64)(grad[9*i:])
		out[i] = -(float64(g[0]*(float64(g[4]*g[8])-float64(g[5]*g[7]))) -
			float64(g[1]*(float64(g[3]*g[8])-float64(g[5]*g[6]))) +
			float64(g[2]*(float64(g[3]*g[7])-float64(g[4]*g[6]))))
	}
}

// FrobeniusNormRow is Mat3.FrobeniusNorm over a row of tensors.
//
//turbdb:rowkernel
func FrobeniusNormRow(grad, out []float64) {
	for i := range out {
		g := (*[9]float64)(grad[9*i:])
		out[i] = math.Sqrt(0.0 +
			float64(g[0]*g[0]) + float64(g[1]*g[1]) + float64(g[2]*g[2]) +
			float64(g[3]*g[3]) + float64(g[4]*g[4]) + float64(g[5]*g[5]) +
			float64(g[6]*g[6]) + float64(g[7]*g[7]) + float64(g[8]*g[8]))
	}
}
