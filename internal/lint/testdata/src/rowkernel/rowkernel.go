// Package rowkernel exercises the body checks of the rowkernel analyzer:
// //turbdb:rowkernel-annotated functions must stay allocation-free. (The
// must-annotate registry is exercised by the fixtures/internal/stencil
// package, whose import path matches a registered suffix.)
package rowkernel

import (
	"math"
	"sync/atomic"
)

// --- positive cases -------------------------------------------------------

//turbdb:rowkernel
func badMake(n int) []float64 {
	return make([]float64, n) // want `calls make`
}

//turbdb:rowkernel
func badMapIndex(lut map[int]float64, x int) float64 {
	return lut[x] // want `indexes a map`
}

//turbdb:rowkernel
func badMapLiteral(x int) int {
	m := map[int]int{x: 1} // want `builds a map literal`
	return len(m)
}

//turbdb:rowkernel
func badDefer(dst []float64) {
	defer square(1) // want `uses defer`
	dst[0] = 0
}

//turbdb:rowkernel
func badCall(x float64) float64 {
	return notKernel(x) // want `calls notKernel, which is not annotated`
}

//turbdb:rowkernel
func badAppend(dst []float64, x float64) []float64 {
	return append(dst, x) // want `append that may grow its backing array`
}

//turbdb:rowkernel
func badBox(x float64) any {
	return any(x) // want `converts to interface type`
}

// badBoxGeneric converts to a type parameter that an interface type can
// instantiate: that conversion may box.
//
//turbdb:rowkernel
func badBoxGeneric[T any](x float64) T {
	var zero T
	_ = T(zero) // want `converts to interface type`
	return zero
}

//turbdb:rowkernel
func badClosure(dst []float64) {
	f := func(i int) { dst[i] = 0 } // want `builds a function literal`
	f(0)
}

//turbdb:rowkernel
func badFactory(n int) func() []float64 {
	return func() []float64 {
		return make([]float64, n) // want `calls make`
	}
}

// --- negative cases -------------------------------------------------------

// goodFactory: the annotation on a kernel factory applies to the kernel it
// returns; the returned literal itself is not a per-call escape.
//
//turbdb:rowkernel
func goodFactory(a float64) func([]float64) {
	return func(dst []float64) {
		for i := range dst {
			dst[i] *= a
		}
	}
}

//turbdb:rowkernel
func square(x float64) float64 {
	return x * x
}

// goodKernel calls only annotated kernels, the math package, and builtins.
//
//turbdb:rowkernel
func goodKernel(dst, src []float64) {
	for i := range src {
		dst[i] = math.Sqrt(square(src[i]))
	}
	_ = len(dst)
}

// goodAppendReuse recycles its destination's backing array.
//
//turbdb:rowkernel
func goodAppendReuse(dst, src []float64) []float64 {
	return append(dst[:0], src...)
}

// goodDynamic: calls through function values are exempt by design (the row
// path routes per-field variation through them); AllocsPerRun covers these.
//
//turbdb:rowkernel
func goodDynamic(dst []float64, f func(float64) float64) {
	for i := range dst {
		dst[i] = f(dst[i])
	}
}

// goodAtomic: sync/atomic operations compile to single instructions and are
// whitelisted alongside math, so kernels can bump metrics counters.
//
//turbdb:rowkernel
func goodAtomic(c *atomic.Int64, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	c.Add(int64(len(dst)))
}

// goodWiden converts to a type parameter whose type set holds only
// concrete float types: every instantiation converts between concrete
// types, as a float32 slab decoded to float64 does.
//
//turbdb:rowkernel
func goodWiden[T float32 | float64](dst []T, src []float32) {
	for i, v := range src {
		dst[i] = T(v)
	}
}

// notAnnotated is an ordinary function: free to allocate.
func notAnnotated(n int) []float64 {
	return make([]float64, n)
}

func notKernel(x float64) float64 {
	return x + 1
}
