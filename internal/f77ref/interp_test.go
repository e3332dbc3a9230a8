// Package f77ref is a sequential Fortran 77 reference for the
// programs the compiler accepts: a direct interpreter over ast.Program
// that shares nothing with the executor's lowering (it imports neither
// spmd, decomp nor codegen) and ignores every Fortran D directive.
// Every correctness check elsewhere compares the compiled run with
// Runner.RunReference, which runs the source on the same lowering; this
// package compares RunReference with Fortran. It lives in test files
// only.
//
// It covers DESIGN.md's subset: REAL and INTEGER scalars and arrays
// (implicit INTEGER for i–n), PARAMETER constants, DO with F77's trip
// count and exit value, block IF, CALL with by-reference actuals,
// RETURN, COMMON blocks bound by position, and the intrinsics MOD,
// MIN, MAX, ABS, SQRT and the paper's F and G. Arithmetic is F77's:
// INTEGER operands divide by truncation, and an assignment to an
// INTEGER variable truncates. Values are float64, as in the executor.
package f77ref

import (
	"errors"
	"fmt"
	"math"

	"fortd/internal/ast"
)

// array is the storage of one array, row-major over its declared bounds.
type array struct {
	lo, hi []int
	data   []float64
}

// frame is one activation of a unit: its names bound to storage.
type frame struct {
	unit    *ast.Procedure
	consts  ast.MapEnv
	scalars map[string]*float64
	arrays  map[string]*array
}

// machine runs one program.
type machine struct {
	prog    *ast.Program
	commons map[string][]any // block → member storage, by position: *float64 or *array
	depth   int
	steps   int // statements left before the run is abandoned
}

var (
	errReturn = errors.New("RETURN")
	// errNotF77 marks a program outside the subset: a node program in
	// the generated dialect (myproc, send, recv, ...).
	errNotF77 = errors.New("not Fortran 77")
)

// Run executes prog's main program sequentially, its main-program
// arrays seeded from init (row-major), and returns them.
func Run(prog *ast.Program, init map[string][]float64) (map[string][]float64, error) {
	main := prog.Main()
	if main == nil {
		return nil, fmt.Errorf("no main program")
	}
	m := &machine{prog: prog, commons: map[string][]any{}, steps: 50_000_000}
	f, err := m.enter(main, nil)
	if err != nil {
		return nil, err
	}
	for name, vals := range init {
		if a := f.arrays[name]; a != nil && len(vals) == len(a.data) {
			copy(a.data, vals)
		}
	}
	if err := m.body(f, main.Body); err != nil && err != errReturn {
		return nil, err
	}
	out := map[string][]float64{}
	for name, a := range f.arrays {
		if sym := main.Symbols.Lookup(name); sym != nil && sym.Kind == ast.SymArray {
			out[name] = a.data
		}
	}
	return out, nil
}

// enter makes u's frame: formals bound to the caller's storage (args),
// COMMON members to the block's, everything else fresh and zero.
func (m *machine) enter(u *ast.Procedure, args []any) (*frame, error) {
	f := &frame{unit: u, consts: u.Constants(), scalars: map[string]*float64{}, arrays: map[string]*array{}}
	for i, name := range u.Params {
		if i >= len(args) {
			return nil, fmt.Errorf("%s: too few actuals", u.Name)
		}
		switch a := args[i].(type) {
		case *float64:
			f.scalars[name] = a
		case *array:
			f.arrays[name] = a
		}
	}
	for _, c := range u.Commons {
		if m.commons[c.Block] == nil {
			m.commons[c.Block] = make([]any, len(c.Members))
		}
		block := m.commons[c.Block]
		for k, name := range c.Members {
			if k >= len(block) {
				return nil, fmt.Errorf("%s: COMMON /%s/ longer than elsewhere", u.Name, c.Block)
			}
			if block[k] == nil {
				s, err := f.alloc(name)
				if err != nil {
					return nil, err
				}
				block[k] = s
			}
			switch s := block[k].(type) {
			case *float64:
				f.scalars[name] = s
			case *array:
				f.arrays[name] = s
			}
		}
	}
	for _, sym := range u.Symbols.Symbols() {
		if _, ok := f.scalars[sym.Name]; ok || f.arrays[sym.Name] != nil || sym.Kind == ast.SymConstant || sym.Kind == ast.SymDecomposition {
			continue
		}
		s, err := f.alloc(sym.Name)
		if err != nil {
			return nil, err
		}
		switch s := s.(type) {
		case *float64:
			f.scalars[sym.Name] = s
		case *array:
			f.arrays[sym.Name] = s
		}
	}
	return f, nil
}

// alloc makes fresh storage for the variable name as f's unit declares it.
func (f *frame) alloc(name string) (any, error) {
	sym := f.unit.Symbols.Lookup(name)
	if sym == nil || sym.Kind != ast.SymArray {
		return new(float64), nil
	}
	a := &array{}
	size := 1
	for _, d := range sym.Dims {
		lo, okLo := ast.EvalInt(d.Lo, f.consts)
		hi, okHi := ast.EvalInt(d.Hi, f.consts)
		if !okLo || !okHi || hi < lo || size*(hi-lo+1) > 1<<26 {
			return nil, fmt.Errorf("%s: array %s has no constant shape", f.unit.Name, name)
		}
		a.lo, a.hi = append(a.lo, lo), append(a.hi, hi)
		size *= hi - lo + 1
	}
	a.data = make([]float64, size)
	return a, nil
}

func (m *machine) body(f *frame, body []ast.Stmt) error {
	for _, s := range body {
		if err := m.stmt(f, s); err != nil {
			return err
		}
	}
	return nil
}

func (m *machine) stmt(f *frame, s ast.Stmt) error {
	if m.steps--; m.steps < 0 {
		return fmt.Errorf("%s: statement budget exhausted", f.unit.Name)
	}
	switch st := s.(type) {
	case *ast.Assign:
		v, err := m.eval(f, st.Rhs)
		if err != nil {
			return err
		}
		if f.isInt(st.Lhs) {
			v = math.Trunc(v)
		}
		p, err := m.lvalue(f, st.Lhs)
		if err != nil {
			return err
		}
		*p = v
	case *ast.Do:
		return m.do(f, st)
	case *ast.If:
		c, err := m.eval(f, st.Cond)
		if err != nil {
			return err
		}
		if c != 0 {
			return m.body(f, st.Then)
		}
		return m.body(f, st.Else)
	case *ast.Call:
		return m.call(f, st)
	case *ast.Return:
		return errReturn
	case *ast.Decomposition, *ast.Align, *ast.Distribute:
		// Fortran D directives: no Fortran meaning
	default:
		return fmt.Errorf("%s: statement %T: %w", f.unit.Name, s, errNotF77)
	}
	return nil
}

// do runs a DO loop as F77 describes it: the parameters are evaluated
// once and converted to the index's type, the iteration count is
// MAX(INT((e2 − e1 + e3)/e3), 0), the index starts at e1 and after each
// iteration is incremented by e3. So after a loop that ran to its end
// the index holds e1 + count·e3.
func (m *machine) do(f *frame, st *ast.Do) error {
	var e [3]float64
	for k, x := range []ast.Expr{st.Lo, st.Hi, st.Step} {
		if x == nil {
			e[k] = 1
			continue
		}
		v, err := m.eval(f, x)
		if err != nil {
			return err
		}
		e[k] = v
	}
	idx := &ast.Ident{Name: st.Var}
	if f.isInt(idx) {
		for k := range e {
			e[k] = math.Trunc(e[k])
		}
	}
	if e[2] == 0 {
		return fmt.Errorf("%s: zero loop step", f.unit.Name)
	}
	count := math.Trunc((e[1] - e[0] + e[2]) / e[2])
	v, err := m.lvalue(f, idx)
	if err != nil {
		return err
	}
	for *v = e[0]; count > 0; count-- {
		if err := m.body(f, st.Body); err != nil {
			return err
		}
		*v += e[2]
	}
	return nil
}

// call binds the actuals by reference: a variable or array passes its
// storage, anything else a temporary holding its value.
func (m *machine) call(f *frame, st *ast.Call) error {
	callee := m.prog.Proc(st.Name)
	if callee == nil {
		return fmt.Errorf("%s: call to unknown procedure %s", f.unit.Name, st.Name)
	}
	if m.depth > 64 {
		return fmt.Errorf("%s: calls nest too deep", f.unit.Name)
	}
	args := make([]any, len(st.Args))
	for i, a := range st.Args {
		if id, ok := a.(*ast.Ident); ok {
			if arr := f.arrays[id.Name]; arr != nil {
				args[i] = arr
				continue
			}
			if _, isConst := f.consts[id.Name]; !isConst {
				p, err := m.lvalue(f, id)
				if err != nil {
					return err
				}
				args[i] = p
				continue
			}
		}
		v, err := m.eval(f, a)
		if err != nil {
			return err
		}
		args[i] = &v
	}
	nf, err := m.enter(callee, args)
	if err != nil {
		return err
	}
	m.depth++
	err = m.body(nf, callee.Body)
	m.depth--
	if err == errReturn {
		err = nil
	}
	return err
}

// lvalue is the storage e names: a scalar or an array element.
func (m *machine) lvalue(f *frame, e ast.Expr) (*float64, error) {
	switch x := e.(type) {
	case *ast.Ident:
		if p := f.scalars[x.Name]; p != nil {
			return p, nil
		}
		if f.arrays[x.Name] != nil {
			return nil, fmt.Errorf("%s: array %s used as a scalar", f.unit.Name, x.Name)
		}
		p := new(float64)
		f.scalars[x.Name] = p
		return p, nil
	case *ast.ArrayRef:
		a := f.arrays[x.Name]
		if a == nil {
			return nil, fmt.Errorf("%s: %s is not an array", f.unit.Name, x.Name)
		}
		if len(x.Subs) != len(a.lo) {
			return nil, fmt.Errorf("%s: %s has rank %d, not %d", f.unit.Name, x.Name, len(a.lo), len(x.Subs))
		}
		off := 0
		for d, sub := range x.Subs {
			v, err := m.eval(f, sub)
			if err != nil {
				return nil, err
			}
			i := int(math.Trunc(v))
			if i < a.lo[d] || i > a.hi[d] {
				return nil, fmt.Errorf("%s: subscript %d of %s is %d, outside %d:%d", f.unit.Name, d+1, x.Name, i, a.lo[d], a.hi[d])
			}
			off = off*(a.hi[d]-a.lo[d]+1) + i - a.lo[d]
		}
		return &a.data[off], nil
	}
	return nil, fmt.Errorf("%s: %v cannot be assigned", f.unit.Name, e)
}

// isInt reports whether e has type INTEGER under F77's rules.
func (f *frame) isInt(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.IntLit:
		return true
	case *ast.Ident:
		if _, ok := f.consts[x.Name]; ok {
			return true
		}
		return f.typeOf(x.Name) == ast.TypeInteger
	case *ast.ArrayRef:
		return f.typeOf(x.Name) == ast.TypeInteger
	case *ast.Unary:
		return x.Op == "-" && f.isInt(x.X)
	case *ast.Binary:
		switch x.Op {
		case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv, ast.OpPow:
			return f.isInt(x.X) && f.isInt(x.Y)
		}
	case *ast.FuncCall:
		switch x.Name {
		case "MOD", "mod", "MIN", "min", "MAX", "max", "ABS", "abs":
			for _, a := range x.Args {
				if !f.isInt(a) {
					return false
				}
			}
			return true
		}
	}
	return false
}

func (f *frame) typeOf(name string) ast.DataType {
	if sym := f.unit.Symbols.Lookup(name); sym != nil {
		return sym.Type
	}
	if c := name[0]; c >= 'i' && c <= 'n' || c >= 'I' && c <= 'N' {
		return ast.TypeInteger
	}
	return ast.TypeReal
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (m *machine) eval(f *frame, e ast.Expr) (float64, error) {
	switch x := e.(type) {
	case *ast.IntLit:
		return float64(x.Value), nil
	case *ast.RealLit:
		return x.Value, nil
	case *ast.Ident:
		if v, ok := f.consts[x.Name]; ok {
			return float64(v), nil
		}
		p, err := m.lvalue(f, x)
		if err != nil {
			return 0, err
		}
		return *p, nil
	case *ast.ArrayRef:
		p, err := m.lvalue(f, x)
		if err != nil {
			return 0, err
		}
		return *p, nil
	case *ast.Unary:
		v, err := m.eval(f, x.X)
		if x.Op == "-" {
			return -v, err
		}
		return b2f(v == 0), err
	case *ast.Binary:
		a, err := m.eval(f, x.X)
		if err != nil {
			return 0, err
		}
		b, err := m.eval(f, x.Y)
		if err != nil {
			return 0, err
		}
		integer := f.isInt(x.X) && f.isInt(x.Y)
		switch x.Op {
		case ast.OpAdd:
			return a + b, nil
		case ast.OpSub:
			return a - b, nil
		case ast.OpMul:
			return a * b, nil
		case ast.OpDiv:
			if !integer {
				return a / b, nil
			}
			if b == 0 {
				return 0, fmt.Errorf("%s: integer division by zero", f.unit.Name)
			}
			return math.Trunc(a / b), nil
		case ast.OpPow:
			if integer && b < 0 {
				return math.Trunc(1 / math.Pow(a, -b)), nil
			}
			return math.Pow(a, b), nil
		case ast.OpEQ:
			return b2f(a == b), nil
		case ast.OpNE:
			return b2f(a != b), nil
		case ast.OpLT:
			return b2f(a < b), nil
		case ast.OpLE:
			return b2f(a <= b), nil
		case ast.OpGT:
			return b2f(a > b), nil
		case ast.OpGE:
			return b2f(a >= b), nil
		case ast.OpAnd:
			return b2f(a != 0 && b != 0), nil
		case ast.OpOr:
			return b2f(a != 0 || b != 0), nil
		}
	case *ast.FuncCall:
		args := make([]float64, len(x.Args))
		for i, a := range x.Args {
			v, err := m.eval(f, a)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		return intrinsic(f, x.Name, args)
	}
	return 0, fmt.Errorf("%s: cannot evaluate %v", f.unit.Name, e)
}

// arity is the argument count of the fixed-arity intrinsics; MIN and
// MAX take one or more.
var arity = map[string]int{"MOD": 2, "mod": 2, "ABS": 1, "abs": 1, "SQRT": 1, "sqrt": 1, "F": 1, "f": 1, "G": 1, "g": 1}

func intrinsic(f *frame, name string, args []float64) (float64, error) {
	if n, ok := arity[name]; ok && len(args) != n || (name == "MIN" || name == "MAX" || name == "min" || name == "max") && len(args) == 0 {
		return 0, fmt.Errorf("%s: %s with %d arguments", f.unit.Name, name, len(args))
	}
	switch name {
	case "MOD", "mod":
		if args[1] == 0 {
			return 0, fmt.Errorf("%s: MOD by zero", f.unit.Name)
		}
		return math.Mod(args[0], args[1]), nil
	case "MIN", "min", "MAX", "max":
		v := args[0]
		for _, a := range args[1:] {
			if max := name == "MAX" || name == "max"; max && a > v || !max && a < v {
				v = a
			}
		}
		return v, nil
	case "ABS", "abs":
		return math.Abs(args[0]), nil
	case "SQRT", "sqrt":
		return math.Sqrt(args[0]), nil
	case "F", "f":
		return 0.5*args[0] + 1.0, nil
	case "G", "g":
		return 0.25*args[0] + 2.0, nil
	}
	return 0, fmt.Errorf("%s: function %s: %w", f.unit.Name, name, errNotF77)
}
