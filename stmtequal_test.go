package fortd

import (
	"fmt"
	"math/rand"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/progen"
)

// stmtKey is how code generation recognised duplicate communication
// before ast.StmtEqual: wrap the statement in a throw-away procedure,
// print it, compare the text. It stays as StmtEqual's oracle.
func stmtKey(s ast.Stmt) string {
	p := &ast.Procedure{Name: "k", Symbols: ast.NewSymbolTable(), Body: []ast.Stmt{s}}
	return string(ast.AppendProcedure(nil, p))
}

// allStmts flattens a body, nested statements included.
func allStmts(body []ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	ast.WalkStmts(body, func(s ast.Stmt) bool {
		out = append(out, s)
		return true
	})
	return out
}

// TestStmtEqualMatchesPrintedKey: StmtEqual must say exactly what
// comparing printed keys said, on every pair of statements of every
// procedure the compiler emits for the digest corpus and a hundred more
// random programs (communication, guards, loops, calls, remaps — all of
// it, under all three strategies), on each statement against
// its clone, and on hand-made pairs that differ only in what the
// printer leaves out or folds together.
func TestStmtEqualMatchesPrintedKey(t *testing.T) {
	pairs, equal := 0, 0
	check := func(where string, a, b ast.Stmt, ka, kb string) {
		pairs++
		want := ka == kb
		if want {
			equal++
		}
		if got := ast.StmtEqual(a, b); got != want {
			t.Fatalf("%s: StmtEqual = %v, printed keys equal = %v\n%s%s", where, got, want, ka, kb)
		}
	}
	cases := digestCases(t)
	for seed := int64(201); seed <= 300; seed++ { // the digest has seeds 1–200
		g := &progen.Gen{Rng: rand.New(rand.NewSource(seed)), N: 24 + int(seed%3)*8, P: []int{3, 4, 6}[seed%3]}
		cases = append(cases, digestCase{name: fmt.Sprintf("progen/%03d", seed), src: g.Generate()})
	}
	for _, c := range cases {
		for _, st := range digestStrategies {
			opts := DefaultOptions()
			opts.Strategy = st.s
			p, err := Compile(c.src, opts)
			if err != nil {
				continue
			}
			for _, u := range p.c.Program.Units {
				stmts := allStmts(u.Body)
				if len(stmts) > 150 {
					stmts = stmts[:150]
				}
				keys := make([]string, len(stmts))
				for i, s := range stmts {
					keys[i] = stmtKey(s)
				}
				for i, a := range stmts {
					check(c.name+"/"+u.Name, a, ast.CloneStmt(a), keys[i], keys[i])
					for j, b := range stmts {
						check(c.name+"/"+u.Name, a, b, keys[i], keys[j])
					}
				}
			}
		}
	}
	if pairs < 100000 || equal < 5000 {
		t.Errorf("%d pairs, %d of them equal: the corpus tests too little", pairs, equal)
	}

	sec := func(lo, hi ast.Expr) []ast.SecDim { return []ast.SecDim{{Lo: lo, Hi: hi}} }
	send := func(sec []ast.SecDim, dest ast.Expr) ast.Stmt {
		return &ast.Message{Op: ast.MsgSend, Array: "a", Sec: sec, Peer: dest}
	}
	to := func(ring bool) *ast.Receivers {
		return &ast.Receivers{Array: "a", Dim: 0, Rank: 1, Lo: ast.Int(2), Hi: ast.Id("n"), Ring: ring}
	}
	guarded := func(s ast.Stmt, els ...ast.Stmt) ast.Stmt {
		return &ast.If{Cond: ast.Cmp(ast.OpGT, ast.Id("my$p"), ast.Int(0)), Then: []ast.Stmt{s}, Else: els}
	}
	hand := []ast.Stmt{
		send(sec(ast.Int(1), ast.Int(1)), ast.Id("p")),
		send(sec(ast.Int(1), &ast.RealLit{Value: 1}), ast.Id("p")), // prints a(1) too
		send(sec(ast.Int(1), ast.Int(2)), ast.Id("p")),
		send(sec(ast.Int(-1), ast.Int(2)), ast.Id("p")),
		send(sec(&ast.Unary{Op: "-", X: ast.Int(1)}, ast.Int(2)), ast.Id("p")), // -1 again
		send(sec(ast.Int(1), ast.Int(2)), &ast.FuncCall{Name: "f", Args: []ast.Expr{ast.Id("i")}}),
		send(sec(ast.Int(1), ast.Int(2)), &ast.ArrayRef{Name: "f", Subs: []ast.Expr{ast.Id("i")}}), // f(i) again
		send(append(sec(ast.Int(1), ast.Int(2)), sec(ast.Id("i"), ast.Id("i"))...), ast.Id("p")),
		&ast.Message{Op: ast.MsgRecv, Array: "a", Sec: sec(ast.Int(1), ast.Int(2)), Peer: ast.Id("p")},
		&ast.Message{Op: ast.MsgBcast, Array: "a", Sec: sec(ast.Int(1), ast.Int(2)), Peer: ast.Id("p")},
		&ast.Message{Op: ast.MsgBcast, Array: "a", Sec: sec(ast.Int(1), ast.Int(2)), Peer: ast.Id("p"), To: to(false)},
		&ast.Message{Op: ast.MsgBcast, Array: "a", Sec: sec(ast.Int(1), ast.Int(2)), Peer: ast.Id("p"), To: to(true)}, // the other shape
		&ast.Message{Op: ast.MsgAllGather, Array: "a", Sec: sec(ast.Int(1), ast.Int(2))},
		guarded(send(sec(ast.Int(1), ast.Int(2)), ast.Id("p"))),
		guarded(send(sec(ast.Int(1), ast.Int(2)), ast.Id("p")), &ast.Return{}),
		guarded(send(sec(ast.Int(1), ast.Int(2)), ast.Id("p")), &ast.Decomposition{Name: "d"}), // an else that prints nothing... but "else" itself prints
		&ast.If{Cond: ast.Id("c"), Then: []ast.Stmt{&ast.Decomposition{Name: "d"}, &ast.Return{}}},
		&ast.If{Cond: ast.Id("c"), Then: []ast.Stmt{&ast.Return{}}},
		&ast.GlobalReduce{Var: "s", Op: "+"},
		&ast.GlobalReduce{Var: "s", Op: "*"}, // prints globalsum as well
		&ast.GlobalReduce{Var: "s", Op: "MAX"},
		&ast.Remap{Array: "a", To: []ast.DistSpec{{Kind: ast.DistBlock, BlockSize: 3}}},
		&ast.Remap{Array: "a", To: []ast.DistSpec{{Kind: ast.DistBlock}}, From: []ast.DistSpec{{Kind: ast.DistCyclic}}},
		&ast.Remap{Array: "a", To: []ast.DistSpec{{Kind: ast.DistBlockCyclic, BlockSize: 3}}},
		&ast.Remap{Array: "a", To: []ast.DistSpec{{Kind: ast.DistBlockCyclic, BlockSize: 4}}},
		&ast.Remap{Array: "a", To: []ast.DistSpec{{Kind: ast.DistBlock}}, InPlace: true},
		&ast.Call{Name: "f", Args: []ast.Expr{ast.Id("i")}},
		&ast.Do{Var: "i", Lo: ast.Int(1), Hi: ast.Id("n")},
		&ast.Do{Var: "i", Lo: ast.Int(1), Hi: ast.Id("n"), Step: ast.Int(1)},
		&ast.Message{Op: ast.MsgPostRecv, Array: "a", Sec: sec(ast.Int(1), ast.Int(2)), Peer: ast.Id("p"), Tag: 1},
		&ast.Message{Op: ast.MsgPostRecv, Array: "a", Sec: sec(ast.Int(1), ast.Int(2)), Peer: ast.Id("p"), Tag: 2},
		&ast.Message{Op: ast.MsgWaitRecv, Array: "a", Tag: 1},
		&ast.Message{Op: ast.MsgWaitBcast, Array: "a", Tag: 1},
		&ast.Message{Op: ast.MsgPostBcast, Array: "a", Sec: sec(ast.Int(1), ast.Int(2)), Peer: ast.Id("p"), Tag: 1},
		&ast.Message{Op: ast.MsgPostBcast, Array: "a", Sec: sec(ast.Int(1), ast.Int(2)), Peer: ast.Id("p"), To: to(false), Tag: 1},
		&ast.Message{Op: ast.MsgPostBcast, Array: "a", Sec: sec(ast.Int(1), ast.Int(2)), Peer: ast.Id("p"), To: to(true), Tag: 1},
		&ast.Align{Array: "a", Target: "d", Terms: []ast.AlignTerm{{ArrayDim: 0, Offset: 1}}},
		&ast.Align{Array: "a", Target: "d"},
		&ast.Distribute{Target: "d", Specs: []ast.DistSpec{{Kind: ast.DistCyclic}}},
		&ast.Assign{Lhs: ast.Id("x"), Rhs: ast.Int(2)},
		&ast.Assign{Lhs: ast.Id("x"), Rhs: &ast.RealLit{Value: 2}},
		&ast.Decomposition{Name: "d"},
		&ast.Decomposition{Name: "e"},
	}
	before := equal
	for _, a := range hand {
		for _, b := range hand {
			check("hand-made", a, b, stmtKey(a), stmtKey(b))
		}
	}
	if equal-before < len(hand)+16 {
		t.Errorf("only %d equal hand-made pairs: the collisions were not drawn", equal-before)
	}
}
