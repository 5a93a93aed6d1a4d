// Package field mirrors the slab layout (its import path ends in
// internal/field) to exercise the rowkernel must-annotate registry on the
// float64 slab a scan decodes into: Slab.DecodeFrom and the generic decode
// loop behind it are row kernels, and a conversion to decode's float type
// parameter is not an interface conversion.
package field

import "math"

type Slab struct {
	NComp int
	Data  []float64
}

//turbdb:rowkernel
func (s *Slab) At(i, c int) float64 { return s.Data[i*s.NComp+c] }

// DecodeFrom is registered in mustAnnotateRowKernels but has lost its
// annotation: the registry pins it.
func (s *Slab) DecodeFrom(blob []byte) { // want `Slab.DecodeFrom is a registered row kernel and must carry a //turbdb:rowkernel annotation`
	decode(s.Data, blob)
}

//turbdb:rowkernel
func decode[T float32 | float64](data []T, blob []byte) {
	for i := range data {
		b := blob[4*i : 4*i+4]
		data[i] = T(math.Float32frombits(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24))
	}
}
