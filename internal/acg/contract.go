package acg

import (
	"fmt"
	"slices"
	"strings"

	"fortd/internal/ast"
)

// The storage-association contract (DESIGN.md deviation 19): Fortran 77
// associates formals with actuals and COMMON members across units by
// storage offset, the compiler and the executor by name, and the two
// agree on exactly the programs Build accepts. Any other association is
// an error that names the unit and line.

func errAt(u *ast.Procedure, line int, format string, args ...any) error {
	return fmt.Errorf("acg: %s line %d: "+format, append([]any{u.Name, line}, args...)...)
}

// conform checks one CALL of callee in unit u.
func conform(u *ast.Procedure, env ast.MapEnv, callee *ast.Procedure, calleeEnv ast.MapEnv, call *ast.Call) error {
	if len(call.Args) != len(callee.Params) {
		return errAt(u, call.Pos().Line, "call %s passes %d arguments to %d formals", call.Name, len(call.Args), len(callee.Params))
	}
	for i, a := range call.Args {
		formal := callee.Formal(i)
		var actual *ast.Symbol
		if id, ok := a.(*ast.Ident); ok {
			actual = u.Symbols.Lookup(id.Name)
		}
		isArray := actual != nil && actual.Kind == ast.SymArray
		why := ""
		switch {
		case formal.Kind == ast.SymArray && !isArray:
			why = fmt.Sprintf("%s, not a whole array, to the array formal %s", a, formal.Name)
		case formal.Kind != ast.SymArray && isArray:
			why = fmt.Sprintf("the array %s to the scalar formal %s", a, formal.Name)
		case isArray && !sameShape(actual, env, formal, calleeEnv):
			why = fmt.Sprintf("%s to the array formal %s", actual, formal)
		case formal.Kind == ast.SymScalar && formal.Type == ast.TypeInteger:
			if r := realOperand(u, a); r != "" {
				why = fmt.Sprintf("%s, which reads the REAL %s, to the INTEGER formal %s", a, r, formal.Name)
			}
		}
		if why != "" {
			return errAt(u, call.Pos().Line, "call %s passes %s", call.Name, why)
		}
		// one array to two formals, which the executor binds to one: F77 forbids defining either
		for k, b := range call.Args[:i] {
			if id, ok := b.(*ast.Ident); isArray && ok && id.Name == actual.Name {
				for _, f := range []string{callee.Params[k], formal.Name} {
					if defines(callee, f) {
						return errAt(u, call.Pos().Line, "call %s passes the array %s to the formals %s and %s, and %s may define %s",
							call.Name, actual.Name, callee.Params[k], formal.Name, call.Name, f)
					}
				}
			}
		}
	}
	return nil
}

// realOperand returns a REAL literal, scalar or array e reads
// ("": none). F77 wants an actual of its formal's type, and an INTEGER
// formal in a distributed subscript makes the caller's ownership guard
// divide what a REAL actual computes in floating point.
func realOperand(u *ast.Procedure, e ast.Expr) (found string) {
	note := func(name string) {
		if sym := u.Symbols.Lookup(name); sym != nil && sym.Kind != ast.SymConstant && sym.Type != ast.TypeInteger {
			found = name
		}
	}
	ast.WalkExpr(e, func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.RealLit:
			found = x.String()
		case *ast.Ident:
			note(x.Name)
		case *ast.ArrayRef:
			note(x.Name)
		}
	})
	return found
}

// defines reports whether u assigns its array formal name or passes it
// to a CALL, which may define it.
func defines(u *ast.Procedure, name string) (found bool) {
	ast.WalkStmts(u.Body, func(s ast.Stmt) bool {
		switch st := s.(type) {
		case *ast.Assign:
			r, ok := st.Lhs.(*ast.ArrayRef)
			found = found || ok && r.Name == name
		case *ast.Call:
			found = found || slices.ContainsFunc(st.Args, func(a ast.Expr) bool { id, ok := a.(*ast.Ident); return ok && id.Name == name })
		}
		return !found
	})
	return found
}

// checkCommons checks the COMMON half of the contract and returns each
// member's declaration with its bounds evaluated (nil: no COMMON).
func checkCommons(prog *ast.Program, envs map[string]ast.MapEnv) (map[string]*ast.Symbol, error) {
	type decl struct {
		u    *ast.Procedure
		c    *ast.Common
		text string // "REAL x(16), INTEGER k"
	}
	var commons map[string]*ast.Symbol
	blocks := map[string]decl{}
	for _, u := range prog.Units {
		for i := range u.Commons {
			c := &u.Commons[i]
			members := make([]string, len(c.Members))
			for j, m := range c.Members {
				sym := u.Symbols.Lookup(m)
				f, ok := folded(sym, envs[u.Name])
				switch {
				case sym.IsFormal:
					return nil, errAt(u, c.Line, "the formal %s is in COMMON /%s/", m, c.Block)
				case !ok:
					return nil, errAt(u, c.Line, "COMMON /%s/ declares %s: a COMMON array has constant bounds", c.Block, sym)
				case commons[m] != nil && commons[m].Common != c.Block:
					return nil, errAt(u, c.Line, "%s is a member of COMMON /%s/ and of /%s/", m, c.Block, commons[m].Common)
				case commons == nil:
					commons = map[string]*ast.Symbol{}
				}
				commons[m], members[j] = f, f.Type.String()+" "+f.String()
			}
			d := decl{u, c, strings.Join(members, ", ")}
			if first, seen := blocks[c.Block]; !seen {
				blocks[c.Block] = d
			} else if d.text != first.text {
				return nil, errAt(u, c.Line, "COMMON /%s/ declares %s where %s line %d declares %s", c.Block, d.text, first.u.Name, first.c.Line, first.text)
			}
		}
	}
	for _, u := range prog.Units {
		for _, sym := range u.Symbols.Symbols() {
			if m := commons[sym.Name]; m != nil && m.Kind == ast.SymArray && sym.Kind == ast.SymArray && sym.Common == "" {
				return nil, errAt(u, sym.Line, "the array %s is named like a member of COMMON /%s/", sym.Name, m.Common)
			}
		}
	}
	return commons, nil
}

// folded copies sym with its bounds evaluated under env to literals, so
// that a unit that does not declare it reads them alike; ok is false if
// a bound is not a constant.
func folded(sym *ast.Symbol, env ast.MapEnv) (*ast.Symbol, bool) {
	cp := *sym
	cp.Dims = make([]ast.Extent, len(sym.Dims))
	for i, d := range sym.Dims {
		lo, okLo := ast.EvalInt(d.Lo, env)
		hi, okHi := ast.EvalInt(d.Hi, env)
		if !okLo || !okHi {
			return nil, false
		}
		cp.Dims[i] = ast.Extent{Lo: ast.Int(lo), Hi: ast.Int(hi)}
	}
	return &cp, true
}

// sameShape reports whether a (under aenv) and b (under benv) have
// equal rank and equal constant bounds.
func sameShape(a *ast.Symbol, aenv ast.MapEnv, b *ast.Symbol, benv ast.MapEnv) bool {
	if len(a.Dims) != len(b.Dims) {
		return false
	}
	for i := range a.Dims {
		for _, e := range [2][2]ast.Expr{{a.Dims[i].Lo, b.Dims[i].Lo}, {a.Dims[i].Hi, b.Dims[i].Hi}} {
			x, okX := ast.EvalInt(e[0], aenv)
			y, okY := ast.EvalInt(e[1], benv)
			if !okX || !okY || x != y {
				return false
			}
		}
	}
	return true
}
