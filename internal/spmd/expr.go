package spmd

import (
	"fmt"
	"math"

	"fortd/internal/ast"
	"fortd/internal/machine"
)

// Expression lowering. An expression becomes an operand: a folded
// constant, a direct frame load, or a closure. Leaves are evaluated
// inline by their consumer (operand.eval is a switch, not a call), so a
// closure call is paid per operator, not per node. Every operator,
// intrinsic and comparison costs one flop and nothing short-circuits,
// which makes an expression's flop count a lowering-time constant: the
// statement that owns it charges the machine once, with the same count
// the tree-walking interpreter accumulated dynamically.
//
// Operands are evaluated through value receivers: a closure then keeps
// its own copy of what it captured instead of moving the lowerer's
// operand to the heap, and lowering allocates one object per closure.

type operandKind uint8

const (
	opConst operandKind = iota // c
	opLocal                    // fr.vals[slot]: a scalar the frame always owns
	opFn                       // fn(fr)
)

type operand struct {
	kind operandKind
	slot int
	c    float64
	fn   exprFn
}

func (o operand) eval(fr *frame) float64 {
	switch o.kind {
	case opConst:
		return o.c
	case opLocal:
		return fr.vals[o.slot]
	}
	return o.fn(fr)
}

func constant(c float64) operand { return operand{kind: opConst, c: c} }
func closure(fn exprFn) operand  { return operand{kind: opFn, fn: fn} }

// failing is an expression that evaluates args (one of them may fail
// first) and then fails itself: errors fire when the offending
// expression executes, in evaluation order.
func failing(args []operand, mk func() error) operand {
	return closure(func(fr *frame) float64 {
		for i := range args {
			args[i].eval(fr)
		}
		fr.nd.fail(mk())
		return 0
	})
}

// intOperand is an expression consumed as an integer (subscript, loop
// or section bound, processor number): the float value rounded to
// nearest. Index arithmetic on a loop variable, the common case, is
// evaluated without a closure call.
type intOperand struct {
	kind intKind
	slot int
	k    int     // intConst; for a cursor loop's index ± constant subscript, the constant (cursor.go)
	c    float64 // intLocalPlus, intFnPlus: added to the value before rounding
	fn   exprFn
}

type intKind uint8

const (
	intConst     intKind = iota // k
	intLocal                    // round(fr.vals[slot])
	intLocalPlus                // round(fr.vals[slot] + c)
	intFn                       // round(fn(fr))
	intFnPlus                   // round(fn(fr) + c)
)

func (o intOperand) eval(fr *frame) int {
	switch o.kind {
	case intConst:
		return o.k
	case intLocal:
		return roundInt(fr.vals[o.slot])
	case intLocalPlus:
		return roundInt(fr.vals[o.slot] + o.c)
	case intFnPlus:
		return roundInt(o.fn(fr) + o.c)
	}
	return roundInt(o.fn(fr))
}

// roundInt is int(math.Round(v)) with a fast path for the values that
// are already integral, which is nearly all of them.
func roundInt(v float64) int {
	if i := int(v); float64(i) == v {
		return i
	}
	return int(math.Round(v))
}

// intExpr lowers e for integer consumption and returns its flop count.
func (lw *lowerer) intExpr(e ast.Expr) (intOperand, int) {
	var o operand
	var ops int
	if b, ok := e.(*ast.Binary); ok && (b.Op == ast.OpAdd || b.Op == ast.OpSub) {
		x, xops := lw.expr(b.X)
		y, yops := lw.expr(b.Y)
		ops = xops + yops + 1
		if x.kind != opConst && y.kind == opConst {
			c := y.c
			if b.Op == ast.OpSub {
				c = -c
			}
			if x.kind == opLocal {
				return intOperand{kind: intLocalPlus, slot: x.slot, c: c}, ops
			}
			return intOperand{kind: intFnPlus, fn: x.fn, c: c}, ops
		}
		o = lw.binary(b, x, y)
	} else {
		o, ops = lw.expr(e)
	}
	switch o.kind {
	case opConst:
		return intOperand{kind: intConst, k: roundInt(o.c)}, ops
	case opLocal:
		return intOperand{kind: intLocal, slot: o.slot}, ops
	}
	return intOperand{kind: intFn, fn: o.fn}, ops
}

// expr lowers e and returns its flop count.
func (lw *lowerer) expr(e ast.Expr) (operand, int) {
	switch x := e.(type) {
	case *ast.IntLit:
		return constant(float64(x.Value)), 0
	case *ast.RealLit:
		return constant(x.Value), 0
	case *ast.Ident:
		return lw.ident(x.Name), 0
	case *ast.ArrayRef:
		ref, ops := lw.arrayRef(x.Name, x.Subs)
		return closure(ref.load()), ops
	case *ast.Unary:
		v, ops := lw.expr(x.X)
		if x.Op == "-" {
			if v.kind == opConst {
				return constant(-v.c), ops + 1
			}
			return closure(func(fr *frame) float64 { return -v.eval(fr) }), ops + 1
		}
		return closure(func(fr *frame) float64 { return b2f(v.eval(fr) == 0) }), ops + 1
	case *ast.Binary:
		a, aops := lw.expr(x.X)
		b, bops := lw.expr(x.Y)
		return lw.binary(x, a, b), aops + bops + 1
	case *ast.FuncCall:
		return lw.intrinsic(x)
	}
	return failing(nil, func() error { return fmt.Errorf("cannot evaluate %T", e) }), 0
}

// ident lowers a scalar read: a PARAMETER constant folds, a scalar the
// frame always owns loads directly, and anything else — a formal, a
// name generated code introduced without declaring it, any name while
// the frame's declarations are still being evaluated — is looked up
// through the slot's binding and may turn out to be undefined.
func (lw *lowerer) ident(name string) operand {
	if c, ok := lw.consts[name]; ok {
		return constant(float64(c))
	}
	slot := lw.slot(name)
	if lw.owned[name] && !lw.decl {
		return operand{kind: opLocal, slot: slot}
	}
	if o, ok := lw.unbound[name]; ok {
		return o
	}
	unit := lw.unit.Name
	if name == "n$proc" {
		nproc := float64(lw.lp.nproc)
		return closure(func(fr *frame) float64 {
			if p := fr.bind[slot].ref; p != nil {
				return *p
			}
			return nproc
		})
	}
	lw.unbound[name] = closure(func(fr *frame) float64 {
		if p := fr.bind[slot].ref; p != nil {
			return *p
		}
		fr.nd.fail(fmt.Errorf("%s: unknown variable %s", unit, name))
		return 0
	})
	return lw.unbound[name]
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// binary lowers x.X op x.Y given the lowered operands.
func (lw *lowerer) binary(x *ast.Binary, a, b operand) operand {
	if a.kind == opConst && b.kind == opConst {
		switch x.Op {
		case ast.OpAdd:
			return constant(a.c + b.c)
		case ast.OpSub:
			return constant(a.c - b.c)
		case ast.OpMul:
			return constant(a.c * b.c)
		}
	}
	if b.kind == opConst {
		if fn := withConst(x.Op, a, b.c, false); fn != nil {
			return closure(fn)
		}
	}
	if a.kind == opConst {
		if fn := withConst(x.Op, b, a.c, true); fn != nil {
			return closure(fn)
		}
	}
	var fn exprFn
	switch x.Op {
	case ast.OpAdd:
		fn = func(fr *frame) float64 { return a.eval(fr) + b.eval(fr) }
	case ast.OpSub:
		fn = func(fr *frame) float64 { return a.eval(fr) - b.eval(fr) }
	case ast.OpMul:
		fn = func(fr *frame) float64 { return a.eval(fr) * b.eval(fr) }
	case ast.OpDiv:
		if lw.isIntExpr(x.X) && lw.isIntExpr(x.Y) {
			unit := lw.unit.Name
			fn = func(fr *frame) float64 {
				n, d := a.eval(fr), b.eval(fr)
				if int(d) == 0 {
					fr.nd.fail(fmt.Errorf("%s: integer division by zero", unit))
					return 0
				}
				return float64(int(n) / int(d))
			}
		} else {
			fn = func(fr *frame) float64 { return a.eval(fr) / b.eval(fr) }
		}
	case ast.OpPow:
		fn = func(fr *frame) float64 { return math.Pow(a.eval(fr), b.eval(fr)) }
	case ast.OpEQ:
		fn = func(fr *frame) float64 { return b2f(a.eval(fr) == b.eval(fr)) }
	case ast.OpNE:
		fn = func(fr *frame) float64 { return b2f(a.eval(fr) != b.eval(fr)) }
	case ast.OpLT:
		fn = func(fr *frame) float64 { return b2f(a.eval(fr) < b.eval(fr)) }
	case ast.OpLE:
		fn = func(fr *frame) float64 { return b2f(a.eval(fr) <= b.eval(fr)) }
	case ast.OpGT:
		fn = func(fr *frame) float64 { return b2f(a.eval(fr) > b.eval(fr)) }
	case ast.OpGE:
		fn = func(fr *frame) float64 { return b2f(a.eval(fr) >= b.eval(fr)) }
	case ast.OpAnd:
		// both sides are always evaluated: .AND./.OR. never short-circuit
		fn = func(fr *frame) float64 { x, y := a.eval(fr), b.eval(fr); return b2f(x != 0 && y != 0) }
	case ast.OpOr:
		fn = func(fr *frame) float64 { x, y := a.eval(fr), b.eval(fr); return b2f(x != 0 || y != 0) }
	default:
		op := x.Op
		return failing([]operand{a, b}, func() error { return fmt.Errorf("bad operator %v", op) })
	}
	return closure(fn)
}

// withConst specialises f op c, or c op f when constLeft, for a closure
// f and the arithmetic and comparisons index and guard expressions are
// made of: the closure captures f and the constant, nothing else.
// Addition, multiplication and (in)equality commute exactly in IEEE
// arithmetic, and an ordering with the constant on the left is the
// mirrored one with it on the right. nil: no specialisation.
func withConst(op ast.BinOp, v operand, c float64, constLeft bool) exprFn {
	if v.kind != opFn {
		return nil
	}
	f := v.fn
	if constLeft {
		switch op {
		case ast.OpSub:
			return func(fr *frame) float64 { return c - f(fr) }
		case ast.OpLT:
			op = ast.OpGT
		case ast.OpLE:
			op = ast.OpGE
		case ast.OpGT:
			op = ast.OpLT
		case ast.OpGE:
			op = ast.OpLE
		}
	}
	switch op {
	case ast.OpAdd:
		return func(fr *frame) float64 { return f(fr) + c }
	case ast.OpSub:
		return func(fr *frame) float64 { return f(fr) - c }
	case ast.OpMul:
		return func(fr *frame) float64 { return f(fr) * c }
	case ast.OpEQ:
		return func(fr *frame) float64 { return b2f(f(fr) == c) }
	case ast.OpNE:
		return func(fr *frame) float64 { return b2f(f(fr) != c) }
	case ast.OpLT:
		return func(fr *frame) float64 { return b2f(f(fr) < c) }
	case ast.OpLE:
		return func(fr *frame) float64 { return b2f(f(fr) <= c) }
	case ast.OpGT:
		return func(fr *frame) float64 { return b2f(f(fr) > c) }
	case ast.OpGE:
		return func(fr *frame) float64 { return b2f(f(fr) >= c) }
	}
	return nil
}

// isIntExpr decides whether an operand is integer-typed (Fortran
// integer division truncates). Conservative: literals, INTEGER
// variables (lw.integer), and their sums, products and quotients.
func (lw *lowerer) isIntExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.IntLit:
		return true
	case *ast.RealLit:
		return false
	case *ast.Ident:
		return lw.integer(x.Name)
	case *ast.Binary:
		switch x.Op {
		case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv:
			return lw.isIntExpr(x.X) && lw.isIntExpr(x.Y)
		}
		return false
	case *ast.Unary:
		return lw.isIntExpr(x.X)
	case *ast.FuncCall:
		switch x.Name {
		case "first$", "myproc":
			return true
		case "MOD", "MIN", "MAX":
			for _, a := range x.Args {
				if !lw.isIntExpr(a) {
					return false
				}
			}
			return true
		}
		return false
	}
	return false
}

// intrinsicArity is the exact argument count of the fixed-arity
// intrinsics (MIN and MAX take one or more).
var intrinsicArity = map[string]int{
	"myproc": 0, "MOD": 2, "mod": 2, "ABS": 1, "abs": 1, "SQRT": 1, "sqrt": 1,
	"first$": 3, "F": 1, "f": 1, "G": 1, "g": 1,
}

// intrinsic lowers a function reference. Arity is checked here, once;
// a reference with the wrong argument count, or to an unknown function,
// fails when it is evaluated.
func (lw *lowerer) intrinsic(x *ast.FuncCall) (operand, int) {
	if max := x.Name == "MAX" || x.Name == "max"; len(x.Args) == 2 && (max || x.Name == "MIN" || x.Name == "min") {
		a, aops := lw.expr(x.Args[0])
		b, bops := lw.expr(x.Args[1])
		if fn := minMaxConst(max, a, b); fn != nil {
			return closure(fn), 1 + aops + bops
		}
		return minMax(max, []operand{a, b}), 1 + aops + bops
	}
	args := make([]operand, len(x.Args))
	ops := 1
	for i, a := range x.Args {
		var n int
		args[i], n = lw.expr(a)
		ops += n
	}
	site, name := lw.site(), x.Name
	if n, ok := intrinsicArity[name]; ok && len(args) != n {
		return failing(args, func() error {
			return fmt.Errorf("%s: %s takes %d argument(s), got %d", site, name, n, len(args))
		}), ops
	}
	unary := func(f func(float64) float64) (operand, int) {
		a := args[0]
		return closure(func(fr *frame) float64 { return f(a.eval(fr)) }), ops
	}
	switch name {
	case "myproc":
		return closure(func(fr *frame) float64 { return fr.nd.pf }), ops
	case "MOD", "mod":
		a, b := args[0], args[1]
		return closure(func(fr *frame) float64 {
			n, d := a.eval(fr), b.eval(fr)
			if int(d) == 0 {
				fr.nd.fail(fmt.Errorf("%s: MOD by zero (divisor %g)", site, d))
				return 0
			}
			return float64(int(n) % int(d))
		}), ops
	case "MIN", "min", "MAX", "max":
		if len(args) == 0 {
			return failing(nil, func() error {
				return fmt.Errorf("%s: %s takes at least 1 argument, got 0", site, name)
			}), ops
		}
		return minMax(name == "MAX" || name == "max", args), ops
	case "ABS", "abs":
		return unary(math.Abs)
	case "SQRT", "sqrt":
		return unary(math.Sqrt)
	case "first$":
		// smallest x >= min with x ≡ anchor (mod step)
		a, b, c := args[0], args[1], args[2]
		return closure(func(fr *frame) float64 {
			anchor, min, step := int(a.eval(fr)), int(b.eval(fr)), int(c.eval(fr))
			if step <= 0 {
				fr.nd.fail(fmt.Errorf("first$: bad step %d", step))
				return 0
			}
			return float64(min + machine.Mod(anchor-min, step))
		}), ops
	case "F", "f":
		// the paper's generic function F: an arbitrary arithmetic map
		return unary(func(v float64) float64 { return 0.5*v + 1.0 })
	case "G", "g":
		return unary(func(v float64) float64 { return 0.25*v + 2.0 })
	}
	unit := lw.unit.Name
	return failing(args, func() error { return fmt.Errorf("%s: unknown function %s", unit, name) }), ops
}

// minMaxConst specialises MIN or MAX of a constant and another operand,
// in either order, capturing the two and nothing else (nil: neither or
// both are constants). It picks as minMax does: the second argument
// where it is strictly beyond the first.
func minMaxConst(max bool, a, b operand) exprFn {
	switch {
	case a.kind == opConst && b.kind != opConst:
		c, v := a.c, b
		return func(fr *frame) float64 {
			if x := v.eval(fr); max && x > c || !max && x < c {
				return x
			}
			return c
		}
	case b.kind == opConst && a.kind != opConst:
		v, c := a, b.c
		return func(fr *frame) float64 {
			x := v.eval(fr)
			if max && c > x || !max && c < x {
				return c
			}
			return x
		}
	}
	return nil
}

// minMax folds MIN or MAX over its arguments, left to right.
func minMax(max bool, args []operand) operand {
	if len(args) == 2 {
		if max {
			return closure(func(fr *frame) float64 {
				m, v := args[0].eval(fr), args[1].eval(fr)
				if v > m {
					return v
				}
				return m
			})
		}
		return closure(func(fr *frame) float64 {
			m, v := args[0].eval(fr), args[1].eval(fr)
			if v < m {
				return v
			}
			return m
		})
	}
	return closure(func(fr *frame) float64 {
		m := args[0].eval(fr)
		for i := 1; i < len(args); i++ {
			if v := args[i].eval(fr); (max && v > m) || (!max && v < m) {
				m = v
			}
		}
		return m
	})
}

// ---------------------------------------------------------------------------
// Array elements

// arrayRef is a lowered subscripted reference. Which array the slot
// holds, and so its rank and bounds, is known only when it executes: a
// formal addresses the caller's array with the caller's bounds.
type arrayRef struct {
	unit, name string
	subs       []intOperand
	slot       int32
	// In the body of a cursor loop (cursor.go) the reference is addressed
	// by the frame's cursor cur while the frame is walking, which it is
	// only inside such a loop, whose body holds none but its own
	// references. Subscript d is then the loop index plus subs[d].k if
	// bit d of ivar is set, and invariant otherwise.
	cur  int16
	ivar uint8
}

func (lw *lowerer) arrayRef(name string, subs []ast.Expr) (*arrayRef, int) {
	r := &lw.lp.refs.take(1)[0]
	*r = arrayRef{unit: lw.unit.Name, name: name, slot: int32(lw.slot(name)), subs: lw.lp.subs.take(len(subs))}
	ops := 0
	for i, s := range subs {
		var n int
		r.subs[i], n = lw.intExpr(s)
		ops += n
	}
	if lw.walk != nil {
		lw.cursorRef(r, subs)
	}
	return r, ops
}

// elem evaluates the subscripts against arr and returns the element as
// this processor holds it: in its window or a site buffer, or else the
// node's hole, which reads as NaN. A failure is parked in the node and
// nil returned.
func (r *arrayRef) elem(fr *frame, arr *Array) *float64 {
	var idx [maxRank]int
	switch len(r.subs) {
	case 1:
		i := r.subs[0].eval(fr)
		if arr.win == nil && len(arr.Lo) == 1 && i >= arr.Lo[0] && i <= arr.Hi[0] {
			return &arr.Data[i-arr.Lo[0]]
		}
		idx[0] = i
	case 2:
		i, j := r.subs[0].eval(fr), r.subs[1].eval(fr)
		if arr.win == nil && len(arr.Lo) == 2 && i >= arr.Lo[0] && i <= arr.Hi[0] && j >= arr.Lo[1] && j <= arr.Hi[1] {
			return &arr.Data[(i-arr.Lo[0])*(arr.Hi[1]-arr.Lo[1]+1)+(j-arr.Lo[1])]
		}
		idx[0], idx[1] = i, j
	default:
		if len(r.subs) > maxRank {
			fr.nd.fail(fmt.Errorf("%s: %s: %d subscripts exceed the limit of %d", r.unit, r.name, len(r.subs), maxRank))
			return nil
		}
		for k := range r.subs {
			idx[k] = r.subs[k].eval(fr)
		}
	}
	if _, err := arr.index(idx[:len(r.subs)]); err != nil {
		fr.nd.fail(fmt.Errorf("%s: %s: %v", r.unit, r.name, err))
		return nil
	}
	if p := arr.at(&idx); p != nil {
		return p
	}
	fr.nd.hole = math.NaN()
	return &fr.nd.hole
}

func (r *arrayRef) unknown() error {
	return fmt.Errorf("%s: unknown array %s", r.unit, r.name)
}

func (r *arrayRef) load() exprFn {
	return func(fr *frame) float64 {
		if fr.walk {
			c := &fr.curs[r.cur]
			return c.data[c.off]
		}
		arr := fr.bind[r.slot].arr
		if arr == nil {
			fr.nd.fail(r.unknown())
			return 0
		}
		if p := r.elem(fr, arr); p != nil {
			return *p
		}
		return 0
	}
}

// store lowers an assignment to the element: the right-hand side is
// evaluated first, then the array is looked up and subscripted. A store
// to an element the processor does not hold is dropped.
func (r *arrayRef) store(rhs operand, flops int) stmtFn {
	return func(fr *frame) error {
		nd := fr.nd
		v := rhs.eval(fr)
		if nd.err != nil {
			return nd.takeErr()
		}
		if fr.walk {
			c := &fr.curs[r.cur]
			c.data[c.off] = v
			nd.proc.Compute(flops)
			return nil
		}
		arr := fr.bind[r.slot].arr
		if arr == nil {
			return r.unknown()
		}
		p := r.elem(fr, arr)
		if nd.err != nil {
			return nd.takeErr()
		}
		*p = v
		nd.proc.Compute(flops)
		return nil
	}
}
