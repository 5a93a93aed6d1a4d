// Package stencil implements the centered finite-difference kernels used to
// evaluate spatial derivatives of the stored simulation fields.
//
// Derived-field computations have local support: the value at a grid node
// depends on the stored field at all neighboring nodes within the kernel of
// computation (paper, Sec. 4). This package supplies first-derivative
// stencils of order 2, 4, 6 and 8; the order-4 stencil is exactly Eq. (2) of
// the paper:
//
//	df/dx|ₙ = (2/3Δx)[f(n+1) − f(n−1)] − (1/12Δx)[f(n+2) − f(n−2)]
//
// The kernel half-width determines the halo band that must be fetched from
// adjacent database nodes during distributed evaluation.
package stencil

import (
	"fmt"

	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
)

// Axis selects the differentiation direction.
type Axis int

// The three coordinate axes.
const (
	AxisX Axis = iota
	AxisY
	AxisZ
)

// Stencil holds centered first-derivative coefficients. The derivative is
//
//	df/dx ≈ (1/Δx)·Σ_{k=1..HalfWidth} Coeffs[k−1]·(f(n+k) − f(n−k))
type Stencil struct {
	// Order is the formal order of accuracy (2, 4, 6 or 8).
	Order int
	// HalfWidth is the kernel half-width: the number of neighbors used on
	// each side, and therefore the halo band width in grid points.
	HalfWidth int
	// Coeffs[k-1] weights the pair f(n+k) − f(n−k).
	Coeffs []float64
}

var stencils = map[int]Stencil{
	2: {Order: 2, HalfWidth: 1, Coeffs: []float64{1.0 / 2}},
	4: {Order: 4, HalfWidth: 2, Coeffs: []float64{2.0 / 3, -1.0 / 12}},
	6: {Order: 6, HalfWidth: 3, Coeffs: []float64{3.0 / 4, -3.0 / 20, 1.0 / 60}},
	8: {Order: 8, HalfWidth: 4, Coeffs: []float64{4.0 / 5, -1.0 / 5, 4.0 / 105, -1.0 / 280}},
}

// Get returns the stencil of the requested order.
func Get(order int) (Stencil, error) {
	s, ok := stencils[order]
	if !ok {
		return Stencil{}, fmt.Errorf("stencil: unsupported finite-difference order %d (want 2, 4, 6 or 8)", order)
	}
	return s, nil
}

// MustGet is Get for orders known statically; it panics on invalid order.
func MustGet(order int) Stencil {
	s, err := Get(order)
	if err != nil {
		panic(err)
	}
	return s
}

// Orders lists the supported finite-difference orders, ascending.
func Orders() []int { return []int{2, 4, 6, 8} }

// Deriv evaluates ∂(component c)/∂(axis) of the block's field at point p
// with grid spacing dx. The block must contain p with a margin of HalfWidth
// points along the axis (the halo); this is the caller's contract and is not
// rechecked per point.
//
// Deriv is the reference the row kernels reproduce bit for bit: the sum
// starts at 0.0, taps are added in ascending k, one final division by dx.
// The explicit float64 conversion rounds the product before it is added:
// the Go spec lets arm64, ppc64le and s390x fuse x*y + z into one rounding,
// and two differently shaped functions need not be fused alike.
func (s Stencil) Deriv(bl *field.Block, p grid.Point, c int, axis Axis, dx float64) float64 {
	var sum float64
	for k := 1; k <= s.HalfWidth; k++ {
		var plus, minus grid.Point
		switch axis {
		case AxisX:
			plus, minus = p.Add(k, 0, 0), p.Add(-k, 0, 0)
		case AxisY:
			plus, minus = p.Add(0, k, 0), p.Add(0, -k, 0)
		default:
			plus, minus = p.Add(0, 0, k), p.Add(0, 0, -k)
		}
		sum += float64(s.Coeffs[k-1] * (bl.At(plus, c) - bl.At(minus, c)))
	}
	return sum / dx
}

// Gradient evaluates the full gradient tensor G[i][j] = ∂u_i/∂x_j of a
// 3-component block at p. The block must contain the halo around p on all
// axes.
func (s Stencil) Gradient(bl *field.Block, p grid.Point, dx float64) [3][3]float64 {
	var g [3][3]float64
	for i := 0; i < 3; i++ {
		g[i][0] = s.Deriv(bl, p, i, AxisX, dx)
		g[i][1] = s.Deriv(bl, p, i, AxisY, dx)
		g[i][2] = s.Deriv(bl, p, i, AxisZ, dx)
	}
	return g
}

// The row kernels evaluate one x-run of n grid points in a single loop. Per
// row they slice the 2·HalfWidth tap rows of each axis out of Block.Data
// once, all to the run's length, so the loop indexes them without bounds
// checks; per point every derivative comes from one of the tap helpers
// below, so each value is bit-for-bit what Deriv returns at that point.

// rows3 returns, per axis, the two tap rows at distance tx, ty, tz on either
// side of the run of w elements that starts at flat offset b of d.
//
//turbdb:rowkernel
func rows3(d []float32, b, w, tx, ty, tz int) (xp, xm, yp, ym, zp, zm []float32) {
	return d[b+tx:][:w], d[b-tx:][:w], d[b+ty:][:w], d[b-ty:][:w], d[b+tz:][:w], d[b-tz:][:w]
}

// tap1 … tap4 evaluate one derivative at element j of a run from the tap
// rows p1, m1, … of one axis: one helper per half-width, small enough to
// inline. They are Deriv's operation sequence unrolled — the sum starts at
// 0.0 (so a −0 first term still yields +0), taps are added in ascending k,
// each product is rounded before it is added (see Deriv), and there is one
// final division by dx.
//
//turbdb:rowkernel
func tap1(c *[1]float64, dx float64, j int, p1, m1 []float32) float64 {
	sum := 0.0
	sum += float64(c[0] * (float64(p1[j]) - float64(m1[j])))
	return sum / dx
}

//turbdb:rowkernel
func tap2(c *[2]float64, dx float64, j int, p1, m1, p2, m2 []float32) float64 {
	sum := 0.0
	sum += float64(c[0] * (float64(p1[j]) - float64(m1[j])))
	sum += float64(c[1] * (float64(p2[j]) - float64(m2[j])))
	return sum / dx
}

//turbdb:rowkernel
func tap3(c *[3]float64, dx float64, j int, p1, m1, p2, m2, p3, m3 []float32) float64 {
	sum := 0.0
	sum += float64(c[0] * (float64(p1[j]) - float64(m1[j])))
	sum += float64(c[1] * (float64(p2[j]) - float64(m2[j])))
	sum += float64(c[2] * (float64(p3[j]) - float64(m3[j])))
	return sum / dx
}

//turbdb:rowkernel
func tap4(c *[4]float64, dx float64, j int, p1, m1, p2, m2, p3, m3, p4, m4 []float32) float64 {
	sum := 0.0
	sum += float64(c[0] * (float64(p1[j]) - float64(m1[j])))
	sum += float64(c[1] * (float64(p2[j]) - float64(m2[j])))
	sum += float64(c[2] * (float64(p3[j]) - float64(m3[j])))
	sum += float64(c[3] * (float64(p4[j]) - float64(m4[j])))
	return sum / dx
}

// row1 … row4 are the loops behind CurlRow and GradientRow, one per
// half-width, over the run of w/3 three-component points that starts at
// flat offset b. With interleaved components the r-th component of the i-th
// point is element 3·i + r of the run, so the curl is one loop over the
// points writing minuend − subtrahend per component into out[:w], and the
// gradient one loop over the elements writing three derivatives each into
// out[:3·w].
//
//turbdb:rowkernel
func row1(d []float32, b, w, sx, sy, sz int, c *[1]float64, dx float64, out []float64, curl bool) {
	xp1, xm1, yp1, ym1, zp1, zm1 := rows3(d, b, w, sx, sy, sz)
	if curl {
		out = out[:w]
		for j := 0; j < len(out)-2; j += 3 {
			out[j] = tap1(c, dx, j+2, yp1, ym1) - tap1(c, dx, j+1, zp1, zm1)
			out[j+1] = tap1(c, dx, j, zp1, zm1) - tap1(c, dx, j+2, xp1, xm1)
			out[j+2] = tap1(c, dx, j+1, xp1, xm1) - tap1(c, dx, j, yp1, ym1)
		}
	} else {
		for j := range xp1 {
			o := out[3*j : 3*j+3 : 3*j+3]
			o[0], o[1], o[2] = tap1(c, dx, j, xp1, xm1), tap1(c, dx, j, yp1, ym1), tap1(c, dx, j, zp1, zm1)
		}
	}
}

//turbdb:rowkernel
func row2(d []float32, b, w, sx, sy, sz int, c *[2]float64, dx float64, out []float64, curl bool) {
	xp1, xm1, yp1, ym1, zp1, zm1 := rows3(d, b, w, sx, sy, sz)
	xp2, xm2, yp2, ym2, zp2, zm2 := rows3(d, b, w, 2*sx, 2*sy, 2*sz)
	if curl {
		out = out[:w]
		for j := 0; j < len(out)-2; j += 3 {
			out[j] = tap2(c, dx, j+2, yp1, ym1, yp2, ym2) - tap2(c, dx, j+1, zp1, zm1, zp2, zm2)
			out[j+1] = tap2(c, dx, j, zp1, zm1, zp2, zm2) - tap2(c, dx, j+2, xp1, xm1, xp2, xm2)
			out[j+2] = tap2(c, dx, j+1, xp1, xm1, xp2, xm2) - tap2(c, dx, j, yp1, ym1, yp2, ym2)
		}
	} else {
		for j := range xp1 {
			o := out[3*j : 3*j+3 : 3*j+3]
			o[0], o[1], o[2] = tap2(c, dx, j, xp1, xm1, xp2, xm2), tap2(c, dx, j, yp1, ym1, yp2, ym2), tap2(c, dx, j, zp1, zm1, zp2, zm2)
		}
	}
}

//turbdb:rowkernel
func row3(d []float32, b, w, sx, sy, sz int, c *[3]float64, dx float64, out []float64, curl bool) {
	xp1, xm1, yp1, ym1, zp1, zm1 := rows3(d, b, w, sx, sy, sz)
	xp2, xm2, yp2, ym2, zp2, zm2 := rows3(d, b, w, 2*sx, 2*sy, 2*sz)
	xp3, xm3, yp3, ym3, zp3, zm3 := rows3(d, b, w, 3*sx, 3*sy, 3*sz)
	if curl {
		out = out[:w]
		for j := 0; j < len(out)-2; j += 3 {
			out[j] = tap3(c, dx, j+2, yp1, ym1, yp2, ym2, yp3, ym3) - tap3(c, dx, j+1, zp1, zm1, zp2, zm2, zp3, zm3)
			out[j+1] = tap3(c, dx, j, zp1, zm1, zp2, zm2, zp3, zm3) - tap3(c, dx, j+2, xp1, xm1, xp2, xm2, xp3, xm3)
			out[j+2] = tap3(c, dx, j+1, xp1, xm1, xp2, xm2, xp3, xm3) - tap3(c, dx, j, yp1, ym1, yp2, ym2, yp3, ym3)
		}
	} else {
		for j := range xp1 {
			o := out[3*j : 3*j+3 : 3*j+3]
			o[0], o[1], o[2] = tap3(c, dx, j, xp1, xm1, xp2, xm2, xp3, xm3), tap3(c, dx, j, yp1, ym1, yp2, ym2, yp3, ym3), tap3(c, dx, j, zp1, zm1, zp2, zm2, zp3, zm3)
		}
	}
}

//turbdb:rowkernel
func row4(d []float32, b, w, sx, sy, sz int, c *[4]float64, dx float64, out []float64, curl bool) {
	xp1, xm1, yp1, ym1, zp1, zm1 := rows3(d, b, w, sx, sy, sz)
	xp2, xm2, yp2, ym2, zp2, zm2 := rows3(d, b, w, 2*sx, 2*sy, 2*sz)
	xp3, xm3, yp3, ym3, zp3, zm3 := rows3(d, b, w, 3*sx, 3*sy, 3*sz)
	xp4, xm4, yp4, ym4, zp4, zm4 := rows3(d, b, w, 4*sx, 4*sy, 4*sz)
	if curl {
		out = out[:w]
		for j := 0; j < len(out)-2; j += 3 {
			out[j] = tap4(c, dx, j+2, yp1, ym1, yp2, ym2, yp3, ym3, yp4, ym4) - tap4(c, dx, j+1, zp1, zm1, zp2, zm2, zp3, zm3, zp4, zm4)
			out[j+1] = tap4(c, dx, j, zp1, zm1, zp2, zm2, zp3, zm3, zp4, zm4) - tap4(c, dx, j+2, xp1, xm1, xp2, xm2, xp3, xm3, xp4, xm4)
			out[j+2] = tap4(c, dx, j+1, xp1, xm1, xp2, xm2, xp3, xm3, xp4, xm4) - tap4(c, dx, j, yp1, ym1, yp2, ym2, yp3, ym3, yp4, ym4)
		}
	} else {
		for j := range xp1 {
			o := out[3*j : 3*j+3 : 3*j+3]
			o[0], o[1], o[2] = tap4(c, dx, j, xp1, xm1, xp2, xm2, xp3, xm3, xp4, xm4), tap4(c, dx, j, yp1, ym1, yp2, ym2, yp3, ym3, yp4, ym4), tap4(c, dx, j, zp1, zm1, zp2, zm2, zp3, zm3, zp4, zm4)
		}
	}
}

// row runs the loop of the stencil's half-width over the n points at p.
//
//turbdb:rowkernel
func (s Stencil) row(bl *field.Block, p grid.Point, n int, dx float64, out []float64, curl bool) {
	if n <= 0 {
		return
	}
	sx, sy, sz := bl.Strides()
	// Capacity clipped to length: a tap row that would leave the block
	// panics when sliced, and never reads a pooled block's stale tail.
	d, b, w := bl.Data[:len(bl.Data):len(bl.Data)], bl.Offset(p, 0), 3*n
	switch s.HalfWidth {
	case 1:
		row1(d, b, w, sx, sy, sz, (*[1]float64)(s.Coeffs), dx, out, curl)
	case 2:
		row2(d, b, w, sx, sy, sz, (*[2]float64)(s.Coeffs), dx, out, curl)
	case 3:
		row3(d, b, w, sx, sy, sz, (*[3]float64)(s.Coeffs), dx, out, curl)
	case 4:
		row4(d, b, w, sx, sy, sz, (*[4]float64)(s.Coeffs), dx, out, curl)
	}
}

// GradientRow evaluates the gradient tensor of a 3-component block at the n
// x-consecutive points starting at p, writing G[r][c] = ∂u_r/∂x_c into
// out[9·i + 3·r + c] for the i-th point, each entry bit-for-bit Gradient's.
// out must have length ≥ 9·n, and the block must contain the run with a
// HalfWidth margin on every axis.
//
//turbdb:rowkernel
func (s Stencil) GradientRow(bl *field.Block, p grid.Point, n int, dx float64, out []float64) {
	s.row(bl, p, n, dx, out, false)
}

// CurlRow evaluates ∇×u of a 3-component block at the n x-consecutive
// points starting at p, writing the i-th point's components to
// out[3·i : 3·i+3]: (∇×u)_x = ∂u_z/∂y − ∂u_y/∂z and cyclic permutations,
// each Deriv's minuend minus Deriv's subtrahend. out must have length
// ≥ 3·n; the margin is GradientRow's.
//
//turbdb:rowkernel
func (s Stencil) CurlRow(bl *field.Block, p grid.Point, n int, dx float64, out []float64) {
	s.row(bl, p, n, dx, out, true)
}

// DerivRow evaluates ∂(component c)/∂(axis) at the n x-consecutive grid
// points p, p+(1,0,0), …, p+(n−1,0,0), writing the results into out[:n],
// bit-for-bit what n calls of Deriv return. The block may have any
// component count and must contain the whole run with a HalfWidth margin
// along the axis.
//
//turbdb:rowkernel
func (s Stencil) DerivRow(bl *field.Block, p grid.Point, n, c int, axis Axis, dx float64, out []float64) {
	if n <= 0 {
		return
	}
	sx, sy, sz := bl.Strides()
	t := [...]int{AxisX: sx, AxisY: sy, AxisZ: sz}[axis]
	// The tap rows reach from the first point's element to the last's.
	d, b, w := bl.Data[:len(bl.Data):len(bl.Data)], bl.Offset(p, c), (n-1)*sx+1
	switch out = out[:n]; s.HalfWidth {
	case 1:
		p1, m1, cf := d[b+t:][:w], d[b-t:][:w], (*[1]float64)(s.Coeffs)
		for i := range out {
			out[i] = tap1(cf, dx, i*sx, p1, m1)
		}
	case 2:
		p1, m1, cf := d[b+t:][:w], d[b-t:][:w], (*[2]float64)(s.Coeffs)
		p2, m2 := d[b+2*t:][:w], d[b-2*t:][:w]
		for i := range out {
			out[i] = tap2(cf, dx, i*sx, p1, m1, p2, m2)
		}
	case 3:
		p1, m1, cf := d[b+t:][:w], d[b-t:][:w], (*[3]float64)(s.Coeffs)
		p2, m2 := d[b+2*t:][:w], d[b-2*t:][:w]
		p3, m3 := d[b+3*t:][:w], d[b-3*t:][:w]
		for i := range out {
			out[i] = tap3(cf, dx, i*sx, p1, m1, p2, m2, p3, m3)
		}
	case 4:
		p1, m1, cf := d[b+t:][:w], d[b-t:][:w], (*[4]float64)(s.Coeffs)
		p2, m2 := d[b+2*t:][:w], d[b-2*t:][:w]
		p3, m3 := d[b+3*t:][:w], d[b-3*t:][:w]
		p4, m4 := d[b+4*t:][:w], d[b-4*t:][:w]
		for i := range out {
			out[i] = tap4(cf, dx, i*sx, p1, m1, p2, m2, p3, m3, p4, m4)
		}
	}
}
