// Package stencil mirrors the row-path layout (its import path ends in
// internal/stencil) to exercise the rowkernel must-annotate registry:
// functions listed in mustAnnotateRowKernels must carry //turbdb:rowkernel,
// so deleting an annotation fails the gate.
package stencil

type Stencil struct {
	HalfWidth int
}

//turbdb:rowkernel
func tap1(c *[1]float64, dx float64, j int, p1, m1 []float64) float64 {
	sum := 0.0
	sum += float64(c[0] * (p1[j] - m1[j]))
	return sum / dx
}

// tap2 is a registered tap helper that has lost its annotation: the
// registry pins it, and an annotated kernel may not call it.
func tap2(c *[2]float64, dx float64, j int, p1, m1, p2, m2 []float64) float64 { // want `tap2 is a registered row kernel and must carry a //turbdb:rowkernel annotation`
	sum := 0.0
	sum += float64(c[0] * (p1[j] - m1[j]))
	sum += float64(c[1] * (p2[j] - m2[j]))
	return sum / dx
}

//turbdb:rowkernel
func (s *Stencil) DerivRow(c *[1]float64, dx float64, p1, m1 []float64, out []float64) {
	for i := range out {
		out[i] = tap1(c, dx, i, p1, m1)
	}
}

//turbdb:rowkernel
func (s *Stencil) CurlRow(c *[2]float64, dx float64, p1, m1, p2, m2 []float64, out []float64) {
	for i := range out {
		out[i] = tap2(c, dx, i, p1, m1, p2, m2) // want `row kernel Stencil.CurlRow calls tap2, which is not annotated //turbdb:rowkernel`
	}
}

// GradientRow is registered in mustAnnotateRowKernels but has lost its
// annotation: the registry pins it.
func (s *Stencil) GradientRow(c *[1]float64, dx float64, p1, m1 []float64, out []float64) { // want `Stencil.GradientRow is a registered row kernel and must carry a //turbdb:rowkernel annotation`
	s.DerivRow(c, dx, p1, m1, out)
}

// helper is not registered and not annotated: free to allocate.
func helper(n int) []float64 {
	return make([]float64, n)
}
