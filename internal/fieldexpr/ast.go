package fieldexpr

import "fmt"

// node is a typed expression-tree node.
type node interface {
	// ncomp is the component count of the node's value: 1 (scalar),
	// 3 (vector) or 9 (rank-two tensor, row-major).
	ncomp() int
	// depth is how many nested differential operators the node applies;
	// the kernel half-width is depth × the stencil half-width.
	depth() int
}

// numberNode is a literal constant.
type numberNode struct{ v float64 }

func (numberNode) ncomp() int { return 1 }
func (numberNode) depth() int { return 0 }

// rawNode references a stored field; idx selects the corresponding block
// at evaluation time (assigned by Compile in sorted field order).
type rawNode struct {
	name string
	nc   int
	idx  int
}

func (n rawNode) ncomp() int { return n.nc }
func (rawNode) depth() int   { return 0 }

// unaryKind enumerates single-argument building blocks.
type unaryKind int

const (
	opCurl    unaryKind = iota // vector → vector, differential
	opGrad                     // scalar → vector, vector → tensor, differential
	opDiv                      // vector → scalar, differential
	opNorm                     // any → scalar
	opAbs                      // scalar → scalar
	opTrace                    // tensor → scalar
	opDet                      // tensor → scalar
	opSym                      // tensor → tensor
	opAntisym                  // tensor → tensor
	opQCrit                    // tensor → scalar
	opRInv                     // tensor → scalar
	opNeg                      // any → same
)

// unaryNode applies a building block to one argument.
type unaryNode struct {
	kind unaryKind
	arg  node
	nc   int
	dep  int
}

func (n unaryNode) ncomp() int { return n.nc }
func (n unaryNode) depth() int { return n.dep }

// binKind enumerates two-argument building blocks and infix operators.
type binKind int

const (
	opAdd    binKind = iota // same comp
	opSub                   // same comp
	opMul                   // scalar × any (either side)
	opDivide                // any / scalar
	opDot                   // same comp → scalar
	opCross                 // vector × vector → vector
	opComp                  // any, literal index → scalar
)

// binNode applies a two-argument operation.
type binNode struct {
	kind binKind
	a, b node
	nc   int
	dep  int
}

func (n binNode) ncomp() int { return n.nc }
func (n binNode) depth() int { return n.dep }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// typeUnary checks and builds a unary node.
func typeUnary(kind unaryKind, name string, arg node) (node, error) {
	nc := arg.ncomp()
	dep := arg.depth()
	switch kind {
	case opCurl:
		if nc != 3 {
			return nil, fmt.Errorf("fieldexpr: curl needs a vector, got %d components", nc)
		}
		return unaryNode{kind: kind, arg: arg, nc: 3, dep: dep + 1}, nil
	case opGrad:
		switch nc {
		case 1:
			return unaryNode{kind: kind, arg: arg, nc: 3, dep: dep + 1}, nil
		case 3:
			return unaryNode{kind: kind, arg: arg, nc: 9, dep: dep + 1}, nil
		}
		return nil, fmt.Errorf("fieldexpr: grad needs a scalar or vector, got %d components", nc)
	case opDiv:
		if nc != 3 {
			return nil, fmt.Errorf("fieldexpr: div needs a vector, got %d components", nc)
		}
		return unaryNode{kind: kind, arg: arg, nc: 1, dep: dep + 1}, nil
	case opNorm:
		return unaryNode{kind: kind, arg: arg, nc: 1, dep: dep}, nil
	case opAbs:
		if nc != 1 {
			return nil, fmt.Errorf("fieldexpr: abs needs a scalar, got %d components", nc)
		}
		return unaryNode{kind: kind, arg: arg, nc: 1, dep: dep}, nil
	case opTrace, opDet, opQCrit, opRInv:
		if nc != 9 {
			return nil, fmt.Errorf("fieldexpr: %s needs a rank-two tensor, got %d components", name, nc)
		}
		return unaryNode{kind: kind, arg: arg, nc: 1, dep: dep}, nil
	case opSym, opAntisym:
		if nc != 9 {
			return nil, fmt.Errorf("fieldexpr: %s needs a rank-two tensor, got %d components", name, nc)
		}
		return unaryNode{kind: kind, arg: arg, nc: 9, dep: dep}, nil
	case opNeg:
		return unaryNode{kind: kind, arg: arg, nc: nc, dep: dep}, nil
	}
	return nil, fmt.Errorf("fieldexpr: unknown unary op")
}

// typeBinary checks and builds a binary node.
func typeBinary(kind binKind, name string, a, b node) (node, error) {
	na, nb := a.ncomp(), b.ncomp()
	dep := maxInt(a.depth(), b.depth())
	switch kind {
	case opAdd, opSub:
		if na != nb {
			return nil, fmt.Errorf("fieldexpr: %s needs matching components (%d vs %d)", name, na, nb)
		}
		return binNode{kind: kind, a: a, b: b, nc: na, dep: dep}, nil
	case opMul:
		switch {
		case na == 1:
			return binNode{kind: kind, a: a, b: b, nc: nb, dep: dep}, nil
		case nb == 1:
			return binNode{kind: kind, a: b, b: a, nc: na, dep: dep}, nil
		}
		return nil, fmt.Errorf("fieldexpr: * needs a scalar operand (%d vs %d components)", na, nb)
	case opDivide:
		if nb != 1 {
			return nil, fmt.Errorf("fieldexpr: / needs a scalar divisor, got %d components", nb)
		}
		return binNode{kind: kind, a: a, b: b, nc: na, dep: dep}, nil
	case opDot:
		if na != nb {
			return nil, fmt.Errorf("fieldexpr: dot needs matching components (%d vs %d)", na, nb)
		}
		return binNode{kind: kind, a: a, b: b, nc: 1, dep: dep}, nil
	case opCross:
		if na != 3 || nb != 3 {
			return nil, fmt.Errorf("fieldexpr: cross needs two vectors (%d vs %d components)", na, nb)
		}
		return binNode{kind: kind, a: a, b: b, nc: 3, dep: dep}, nil
	case opComp:
		lit, ok := b.(numberNode)
		if !ok {
			return nil, fmt.Errorf("fieldexpr: comp index must be a literal number")
		}
		idx := int(lit.v)
		// exact integrality check on a user-written literal
		if float64(idx) != lit.v || idx < 0 || idx >= na {
			return nil, fmt.Errorf("fieldexpr: comp index %v out of range [0,%d)", lit.v, na)
		}
		return binNode{kind: kind, a: a, b: b, nc: 1, dep: a.depth()}, nil
	}
	return nil, fmt.Errorf("fieldexpr: unknown binary op")
}
