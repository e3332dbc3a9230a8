package comm

import (
	"slices"

	"fortd/internal/ast"
	"fortd/internal/decomp"
	"fortd/internal/partition"
	"fortd/internal/sideeffect"
)

// Why a shift carried by the loop that partitions its statement stays
// inside that loop (Access.NoPipe).
const (
	WhyPipeNotBlock = "the dimension is not BLOCK-distributed, so the nonlocal cells are not one neighbour's boundary"
	WhyPipeWide     = "the shift reaches past the neighbouring block"
	WhyPipeAgainst  = "the dependence does not run in the direction of a loop that steps by one"
	WhyPipeSameIter = "the iteration that reads the cells writes them first, so they are not final before the loop"
	WhyPipeMixed    = "statements in the loop are partitioned differently or not at all, so every processor runs every iteration"
	WhyPipeReturn   = "the loop's body may RETURN, so its bounds are not reduced and every processor runs every iteration"
	WhyPipeOther    = "another message (a broadcast, an allgather or a shift that has to stay) is placed inside the loop, and every processor takes part in it each iteration"
	WhyPipeSection  = "the section's other dimensions cannot be evaluated before the loop"
	WhyPipeNotShift = "the callee resolves the reference by an allgather, not a neighbour exchange (its formal's declared blocks are narrower than the shift)"
)

// pipeline finds the Fortran D pipelined computations: loops carrying a
// recurrence x(v) = f(x(v+c)) across block boundaries. When the loop
// binds the partition variable v of its statements, the distribution is
// BLOCK with |c| inside one block, c < 0 under step 1, the loop is
// Reducible and every statement of the body executes under its
// constraint, the cell iteration v reads at v+c was written by
// iteration v+c < v or not at all: what a processor needs of its
// predecessor is final once that has run its own iterations. The shift
// then goes around the loop, recv before and send after (codegen), and
// the loop keeps its reduced bounds (core). Any other message placed
// inside the loop has every processor run every iteration, so all of a
// loop's messages qualify or none.
func pipeline(proc *ast.Procedure, res *Result, plan *partition.Plan, items map[*ast.Assign]*partition.Item, fx *sideeffect.Analysis, env ast.Env) {
	if fx == nil {
		return
	}
	placed, around := map[*ast.Do]int{}, map[*ast.Do]int{}
	inside := func(loops []*ast.Do) {
		for _, l := range loops {
			placed[l]++
		}
	}
	// why the shift by c that loop carries cannot go around it with sec
	why := func(dist *decomp.Dist, c int, loop *ast.Do, sec []ast.SecDim, sameIter bool) string {
		dim, n, cons := dist.DistDim(), loop.Norm(env), plan.LoopBounds[loop]
		switch {
		case dim < 0 || dist.Specs[dim].Kind != ast.DistBlock:
			return WhyPipeNotBlock
		case abs(c) >= dist.BlockSize():
			return WhyPipeWide
		case (c > 0 || n.Step != 1) && sameIter:
			return WhyPipeSameIter
		case c > 0 || n.Step != 1:
			return WhyPipeAgainst
		case cons == nil || !cons.Dist.SameOwners(dist):
			return WhyPipeMixed
		case !partition.Reducible(cons, loop, env):
			return WhyPipeReturn
		}
		// sec, which leaves out the distributed dimension (the block
		// boundary fills it), may name nothing the loop assigns
		var mod *sideeffect.Summary
		if len(sec) > 1 {
			mod = sideeffect.NewSummary()
			fx.Add(mod, loop)
		}
		fixed := true
		for _, sd := range sec {
			for _, e := range [2]ast.Expr{sd.Lo, sd.Hi} {
				ast.WalkExpr(e, func(e ast.Expr) {
					switch x := e.(type) {
					case *ast.Ident:
						fixed = fixed && !mod.Mod.Has(x.Name)
					case *ast.ArrayRef:
						fixed = fixed && !mod.Mod.Has(x.Name)
					}
				})
			}
		}
		if !fixed {
			return WhyPipeSection
		}
		around[loop]++
		return ""
	}
	for _, acc := range res.Accesses {
		switch {
		case acc.AtCall():
			inside(acc.Nest)
			continue
		case acc.Delay || acc.AtLoop == nil:
			continue
		}
		inside(acc.Nest[:slices.Index(acc.Nest, acc.AtLoop)+1])
		// a candidate is carried by the loop it is placed in: a local one
		// is indexed by its statement's partition variable (Shift is set
		// for nothing else) and that loop binds it; a callee's section
		// is anchored at that loop in the distributed dimension
		carried := false
		switch asg, _ := acc.Stmt.(*ast.Assign); {
		case acc.Shift == 0:
		case acc.Site != nil:
			carried = acc.DistDim >= 0 && acc.Section.Dims[acc.DistDim].Anchors(acc.AtLoop.Var)
		default:
			carried = partition.LoopFor(acc.Nest, items[asg].Sub.Var) == acc.AtLoop
		}
		if carried {
			sec, _ := acc.Sec(proc, plan.Index, env, true)
			if acc.NoPipe = WhyPipeNotShift; acc.Site == nil || acc.Kind == KShift {
				acc.NoPipe = why(acc.Dist, acc.Shift, acc.AtLoop, sec, acc.Why == WhySameIter)
			}
			acc.Pipelined = acc.NoPipe == ""
		}
	}
	for _, acc := range res.Accesses {
		if acc.Pipelined && placed[acc.AtLoop] != around[acc.AtLoop] {
			acc.Pipelined, acc.NoPipe = false, WhyPipeOther
		}
	}
}
