package depend

import (
	"testing"

	"fortd/internal/ast"
)

// bytesRand turns fuzz input into a stream of small choices; an
// exhausted stream answers 0, so every input is a complete program.
type bytesRand struct {
	b []byte
}

func (r *bytesRand) n(k int) int {
	if len(r.b) == 0 {
		return 0
	}
	v := int(r.b[0])
	r.b = r.b[1:]
	return v % k
}

var fuzzLoopVars = []string{"i", "j", "k"}

// fuzzExpr draws a subscript tree: mostly affine, with negative
// coefficients, PARAMETER names (np, nq), symbols (m, n) and loop
// indices whether or not their loop encloses the reference — and now
// and then something that is not affine at all.
func fuzzExpr(r *bytesRand, depth int) ast.Expr {
	if depth <= 0 || r.n(3) == 0 {
		switch r.n(8) {
		case 0, 1, 2:
			return ast.Id(fuzzLoopVars[r.n(3)])
		case 3:
			return ast.Id([]string{"m", "n", "np", "nq"}[r.n(4)])
		case 4:
			return &ast.RealLit{Value: 1.5}
		default:
			return ast.Int(r.n(7) - 3)
		}
	}
	switch r.n(9) {
	case 0, 1:
		return &ast.Binary{Op: ast.OpAdd, X: fuzzExpr(r, depth-1), Y: fuzzExpr(r, depth-1)}
	case 2, 3:
		return &ast.Binary{Op: ast.OpSub, X: fuzzExpr(r, depth-1), Y: fuzzExpr(r, depth-1)}
	case 4, 5:
		return &ast.Binary{Op: ast.OpMul, X: fuzzExpr(r, depth-1), Y: fuzzExpr(r, depth-1)}
	case 6:
		return &ast.Unary{Op: "-", X: fuzzExpr(r, depth-1)}
	case 7:
		return &ast.Binary{Op: ast.OpDiv, X: fuzzExpr(r, depth-1), Y: ast.Int(2)}
	}
	return &ast.FuncCall{Name: "MOD", Args: []ast.Expr{fuzzExpr(r, depth-1), ast.Int(3)}}
}

// fuzzBound is affine over the enclosing loops' indices and symbols.
// (A bound naming its own or an inner loop's index reads a stale
// variable; the map form matched such a name against the subscripts'
// live index by spelling, the dense form does not.)
func fuzzBound(r *bytesRand, outer []string) ast.Expr {
	names := append([]string{"m", "n", "np"}, outer...)
	var e ast.Expr = ast.Int(r.n(5) - 1)
	if r.n(2) == 0 {
		e = ast.Add(ast.Id(names[r.n(len(names))]), e)
	}
	if r.n(4) == 0 {
		e = ast.Sub(e, ast.Id(names[r.n(len(names))]))
	}
	return e
}

func fuzzRef(r *bytesRand) *ast.ArrayRef {
	ref := &ast.ArrayRef{Name: []string{"A", "B"}[r.n(2)]}
	for d := 0; d < 1+r.n(2); d++ {
		ref.Subs = append(ref.Subs, fuzzExpr(r, 1+r.n(3)))
	}
	return ref
}

// fuzzBody fills a statement list at one nesting level: assignments
// over A and B, and inner loops whose index is none of the enclosing
// ones (separate nests do share names, which is the point).
func fuzzBody(r *bytesRand, outer []string, budget *int) []ast.Stmt {
	var body []ast.Stmt
	for s := 0; s < 1+r.n(3) && *budget > 0; s++ {
		*budget--
		var free []string
		for _, v := range fuzzLoopVars {
			used := false
			for _, o := range outer {
				used = used || o == v
			}
			if !used {
				free = append(free, v)
			}
		}
		if len(free) > 0 && r.n(3) == 0 {
			v := free[r.n(len(free))]
			loop := &ast.Do{Var: v, Lo: fuzzBound(r, outer), Hi: fuzzBound(r, outer)}
			if r.n(2) == 0 {
				loop.Step = []ast.Expr{ast.Int(-1), ast.Int(2), &ast.Unary{Op: "-", X: ast.Int(2)}, ast.Id("m")}[r.n(4)]
			}
			loop.Body = fuzzBody(r, append(append([]string(nil), outer...), v), budget)
			body = append(body, loop)
			continue
		}
		var rhs ast.Expr = fuzzRef(r)
		if r.n(2) == 0 {
			rhs = &ast.Binary{Op: ast.OpAdd, X: rhs, Y: fuzzRef(r)}
		}
		body = append(body, &ast.Assign{Lhs: fuzzRef(r), Rhs: rhs})
	}
	return body
}

// FuzzAffine builds a procedure from the input — several loop nests
// over the same index names, references with arbitrary subscript trees
// — and holds Linearize, the memo and Analyze to the map-based oracle.
func FuzzAffine(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 0, 1, 1, 1, 0, 5, 0, 0, 1, 6, 0, 0, 2, 0, 0, 0, 1, 1, 0, 1, 1, 0, 1})
	f.Add([]byte("interprocedural compilation of Fortran D for MIMD distributed-memory machines"))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 254, 253, 252, 251, 250, 249, 248, 247, 246, 245, 244, 243, 242, 241, 240, 239, 238, 237, 236})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &bytesRand{b: data}
		budget := 24
		proc := &ast.Procedure{Name: "F", Symbols: ast.NewSymbolTable()}
		for nestNo := 0; nestNo < 3 && budget > 0; nestNo++ {
			proc.Body = append(proc.Body, fuzzBody(r, nil, &budget)...)
		}
		for _, env := range []ast.Env{nil, ast.MapEnv{"np": 4, "nq": -2}} {
			if err := CheckAnalysis(proc, env); err != nil {
				t.Fatal(err)
			}
		}
	})
}
