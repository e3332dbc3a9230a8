package codegen

import (
	"testing"

	"fortd/internal/ast"
)

// BenchmarkAggregateAnchors dedupes what code generation anchors for
// one subroutine of the benchmark's compile_synth256 program: eight
// loops, each with a guarded send and a guarded recv before it for
// both of its shifted references, one pair of them duplicates.
func BenchmarkAggregateAnchors(b *testing.B) {
	shift := func(arr string, off int, send bool) ast.Stmt {
		sec := []ast.SecDim{{
			Lo: ast.Add(ast.Id("lb$1"), ast.Int(off)),
			Hi: ast.Add(ast.Id("ub$1"), ast.Int(off)),
		}}
		peer := ast.Add(ast.Id("my$p"), ast.Int(1))
		comm := &ast.Message{Op: ast.MsgRecv, Array: arr, Sec: sec, Peer: peer}
		if send {
			comm = &ast.Message{Op: ast.MsgSend, Array: arr, Sec: sec, Peer: peer}
		}
		return &ast.If{
			Cond: ast.Cmp(ast.OpLT, ast.Id("my$p"), ast.Int(3)),
			Then: []ast.Stmt{comm},
		}
	}
	loops := make([]*ast.Do, 8)
	anchored := make([][]ast.Stmt, len(loops))
	for l := range loops {
		loops[l] = &ast.Do{Var: "i"}
		anchored[l] = []ast.Stmt{
			shift("x", l, true), shift("x", l, false),
			shift("x", -l, true), shift("x", -l, false),
			shift("x", l, true), shift("x", l, false),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := newAnchors()
		for l, loop := range loops {
			// the dedupe filters its list in place
			a.beforeLoop[loop] = append([]ast.Stmt(nil), anchored[l]...)
		}
		if dropped := aggregateAnchors(a); dropped != 16+2 {
			b.Fatalf("dropped %d", dropped)
		}
	}
}
