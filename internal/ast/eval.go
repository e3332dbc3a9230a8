package ast

// Env supplies integer values for identifiers during constant evaluation.
type Env interface {
	Value(name string) (int, bool)
}

// MapEnv is an Env backed by a map.
type MapEnv map[string]int

// Value implements Env.
func (m MapEnv) Value(name string) (int, bool) {
	v, ok := m[name]
	return v, ok
}

// EvalInt evaluates e as an integer expression under env. It returns
// false when e involves unknown identifiers, array references, or
// non-integer results.
func EvalInt(e Expr, env Env) (int, bool) {
	switch x := e.(type) {
	case *IntLit:
		return x.Value, true
	case *Ident:
		if env == nil {
			return 0, false
		}
		return env.Value(x.Name)
	case *Unary:
		v, ok := EvalInt(x.X, env)
		if !ok {
			return 0, false
		}
		if x.Op == "-" {
			return -v, true
		}
		return 0, false
	case *Binary:
		a, ok := EvalInt(x.X, env)
		if !ok {
			return 0, false
		}
		b, ok := EvalInt(x.Y, env)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case OpAdd:
			return a + b, true
		case OpSub:
			return a - b, true
		case OpMul:
			return a * b, true
		case OpDiv:
			if b == 0 {
				return 0, false
			}
			return a / b, true
		case OpPow:
			if b < 0 {
				return 0, false
			}
			r := 1
			for i := 0; i < b; i++ {
				r *= a
			}
			return r, true
		case OpEQ:
			return b2i(a == b), true
		case OpNE:
			return b2i(a != b), true
		case OpLT:
			return b2i(a < b), true
		case OpLE:
			return b2i(a <= b), true
		case OpGT:
			return b2i(a > b), true
		case OpGE:
			return b2i(a >= b), true
		case OpAnd:
			return b2i(a != 0 && b != 0), true
		case OpOr:
			return b2i(a != 0 || b != 0), true
		}
		return 0, false
	case *FuncCall:
		if len(x.Args) == 2 {
			a, okA := EvalInt(x.Args[0], env)
			b, okB := EvalInt(x.Args[1], env)
			if okA && okB {
				switch x.Name {
				case "MIN":
					if a < b {
						return a, true
					}
					return b, true
				case "MAX":
					if a > b {
						return a, true
					}
					return b, true
				case "MOD":
					if b == 0 {
						return 0, false
					}
					return a % b, true
				}
			}
		}
		return 0, false
	}
	return 0, false
}

// Expression constructors used heavily by code generation. Each folds
// constants where possible so generated programs stay readable.

// Int returns an integer literal.
func Int(v int) Expr { return &IntLit{Value: v} }

// Id returns an identifier reference.
func Id(name string) Expr { return &Ident{Name: name} }

// Add returns x + y with constant folding and identity elimination.
func Add(x, y Expr) Expr {
	a, okA := EvalInt(x, nil)
	b, okB := EvalInt(y, nil)
	switch {
	case okA && okB:
		return Int(a + b)
	case okA && a == 0:
		return y
	case okB && b == 0:
		return x
	}
	return &Binary{Op: OpAdd, X: x, Y: y}
}

// Sub returns x - y with constant folding.
func Sub(x, y Expr) Expr {
	a, okA := EvalInt(x, nil)
	b, okB := EvalInt(y, nil)
	switch {
	case okA && okB:
		return Int(a - b)
	case okB && b == 0:
		return x
	}
	return &Binary{Op: OpSub, X: x, Y: y}
}

// Mul returns x * y with constant folding.
func Mul(x, y Expr) Expr {
	a, okA := EvalInt(x, nil)
	b, okB := EvalInt(y, nil)
	switch {
	case okA && okB:
		return Int(a * b)
	case okA && a == 1:
		return y
	case okB && b == 1:
		return x
	case (okA && a == 0) || (okB && b == 0):
		return Int(0)
	}
	return &Binary{Op: OpMul, X: x, Y: y}
}

// Min returns MIN(x, y), folded when both are constant.
func Min(x, y Expr) Expr {
	a, okA := EvalInt(x, nil)
	b, okB := EvalInt(y, nil)
	if okA && okB {
		if a < b {
			return Int(a)
		}
		return Int(b)
	}
	return &FuncCall{Name: "MIN", Args: []Expr{x, y}}
}

// Max returns MAX(x, y), folded when both are constant.
func Max(x, y Expr) Expr {
	a, okA := EvalInt(x, nil)
	b, okB := EvalInt(y, nil)
	if okA && okB {
		if a > b {
			return Int(a)
		}
		return Int(b)
	}
	return &FuncCall{Name: "MAX", Args: []Expr{x, y}}
}

// Cmp builds a comparison expression.
func Cmp(op BinOp, x, y Expr) Expr { return &Binary{Op: op, X: x, Y: y} }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
