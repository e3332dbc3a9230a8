package spmd

import (
	"context"
	"errors"
	"fmt"
	"math"

	"fortd/internal/ast"
	"fortd/internal/decomp"
	"fortd/internal/machine"
)

// The tree-walking interpreter the execution plan replaced, kept as a
// test-only oracle: it re-resolves every name through string-keyed maps
// and accumulates flop counts dynamically, so it shares no lowering
// decision with the plan. TestPlanMatchesTreeWalk runs both on the same
// programs and compares statistics, arrays and trace exports.

// RunTreeWalk lowers nothing: it runs prog on the oracle (exported to
// the external test package only).
func RunTreeWalk(ctx context.Context, prog *ast.Program, cfg machine.Config, dists map[string]*decomp.Dist, opts Options) (*RunResult, error) {
	var names []string
	for _, sym := range prog.Main().Symbols.Symbols() {
		if sym.Kind == ast.SymArray {
			names = append(names, sym.Name)
		}
	}
	return runNodes(ctx, cfg, opts, names, func(proc *machine.Proc) ([]*Array, error) {
		it := &treeInterp{prog: prog, proc: proc, p: proc.ID(), nproc: cfg.P, dists: dists}
		f, err := it.newFrame(prog.Main(), nil, nil)
		if err != nil {
			return nil, err
		}
		for name, vals := range opts.Init {
			if arr, ok := f.arrays[name]; ok {
				copy(arr.Data, vals)
			}
		}
		for name, v := range opts.InitScalars {
			if s, ok := f.scalars[name]; ok {
				*s = v
			}
		}
		if err := it.execBody(f, prog.Main().Body); err != nil && !errors.Is(err, errReturn) {
			return nil, err
		}
		arrays := make([]*Array, len(names))
		for i, name := range names {
			arrays[i] = f.arrays[name]
		}
		return arrays, nil
	})
}

// treeFrame is one procedure activation.
type treeFrame struct {
	unit    *ast.Procedure
	scalars map[string]*float64
	arrays  map[string]*Array
	consts  map[string]int
}

// treeInterp executes one processor's node program.
type treeInterp struct {
	prog    *ast.Program
	proc    *machine.Proc
	p       int
	nproc   int
	frames  []*treeFrame
	verbose bool
	// commons holds each COMMON member's storage for the whole run,
	// made by the first activation that declares it
	commons map[string]*treeCommon
	// initial distributions for main-program arrays
	dists map[string]*decomp.Dist
	ops   int
	// posted holds the outstanding split-phase operations by tag
	// (postrecv/postbcast executed, matching wait not yet reached).
	// Tags are unique program-wide, so a post can be completed by a
	// wait in another statement of the same body without collision.
	posted map[int32]*treePosted
}

// treeCommon is one COMMON member: a scalar or an array.
type treeCommon struct {
	scalar *float64
	arr    *Array
}

// treePosted is one in-flight split-phase operation: the machine handle
// plus where the payload lands when the wait completes. The array and
// offsets are captured at post time, so the wait stores into exactly
// the section the post named.
type treePosted struct {
	h      *machine.Handle
	arr    *Array
	offs   []int
	isRoot bool // bcast: this processor supplied the data; nothing to store
}

// setTraceCtx attributes the communication the statement is about to
// generate to its owning procedure and source line. The context is
// recorded unconditionally (it is three field writes): trace events
// and the deadlock report's per-processor lines both read it.
func (it *treeInterp) setTraceCtx(f *treeFrame, s ast.Stmt, op string) {
	it.proc.SetContext(f.unit.Name, s.Pos().Line, op)
}

// ---------------------------------------------------------------------------
// Frames

func (it *treeInterp) newFrame(unit *ast.Procedure, args []ast.Expr, caller *treeFrame) (*treeFrame, error) {
	f := &treeFrame{
		unit:    unit,
		scalars: map[string]*float64{},
		arrays:  map[string]*Array{},
		consts:  map[string]int{},
	}
	// constants first (array bounds may use them)
	for _, sym := range unit.Symbols.Symbols() {
		if sym.Kind == ast.SymConstant {
			f.consts[sym.Name] = sym.ConstValue
		}
	}
	// bind formals
	bound := map[string]bool{}
	for i, name := range unit.Params {
		if i >= len(args) {
			break
		}
		bound[name] = true
		switch a := args[i].(type) {
		case *ast.Ident:
			if arr, ok := caller.arrays[a.Name]; ok {
				f.arrays[name] = arr
				continue
			}
			if sc, ok := caller.scalars[a.Name]; ok {
				f.scalars[name] = sc
				continue
			}
			v := 0.0
			f.scalars[name] = &v
		default:
			// expression argument: by value
			val, err := itEval(it, caller, args[i])
			if err != nil {
				return nil, err
			}
			v := val
			f.scalars[name] = &v
		}
	}
	// declare locals
	for _, sym := range unit.Symbols.Symbols() {
		if c := it.commons[sym.Name]; c != nil && sym.Common != "" {
			if c.arr != nil {
				f.arrays[sym.Name] = c.arr
			} else {
				f.scalars[sym.Name] = c.scalar
			}
			continue
		}
		switch sym.Kind {
		case ast.SymScalar:
			if f.scalars[sym.Name] == nil && f.arrays[sym.Name] == nil {
				v := 0.0
				f.scalars[sym.Name] = &v
			}
		case ast.SymArray:
			if f.arrays[sym.Name] != nil {
				continue // bound formal
			}
			arr, err := it.allocArray(f, sym)
			if err != nil {
				return nil, err
			}
			f.arrays[sym.Name] = arr
		}
		if sym.Common != "" {
			if it.commons == nil {
				it.commons = map[string]*treeCommon{}
			}
			it.commons[sym.Name] = &treeCommon{f.scalars[sym.Name], f.arrays[sym.Name]}
		}
	}
	return f, nil
}

func (it *treeInterp) allocArray(f *treeFrame, sym *ast.Symbol) (*Array, error) {
	arr := &Array{}
	size := 1
	for _, d := range sym.Dims {
		lo, err := it.evalInt(f, d.Lo)
		if err != nil {
			return nil, fmt.Errorf("array %s: %v", sym.Name, err)
		}
		hi, err := it.evalInt(f, d.Hi)
		if err != nil {
			return nil, fmt.Errorf("array %s: %v", sym.Name, err)
		}
		arr.Lo = append(arr.Lo, lo)
		arr.Hi = append(arr.Hi, hi)
		size *= hi - lo + 1
	}
	arr.Data = make([]float64, size)
	if it.dists != nil && len(it.frames) == 0 {
		arr.Dist = it.dists[sym.Name]
	}
	return arr, nil
}

// ---------------------------------------------------------------------------
// Execution

func (it *treeInterp) execBody(f *treeFrame, body []ast.Stmt) error {
	for _, s := range body {
		if err := it.exec(f, s); err != nil {
			return err
		}
	}
	return nil
}

func (it *treeInterp) exec(f *treeFrame, s ast.Stmt) error {
	switch st := s.(type) {
	case *ast.Assign:
		it.ops = 0
		val, err := it.eval(f, st.Rhs)
		if err != nil {
			return err
		}
		switch lhs := st.Lhs.(type) {
		case *ast.Ident:
			sc := f.scalars[lhs.Name]
			if sc == nil {
				v := 0.0
				sc = &v
				f.scalars[lhs.Name] = sc
			}
			*sc = val
		case *ast.ArrayRef:
			arr := f.arrays[lhs.Name]
			if arr == nil {
				return fmt.Errorf("%s: unknown array %s", f.unit.Name, lhs.Name)
			}
			idx, err := it.evalSubs(f, lhs.Subs)
			if err != nil {
				return err
			}
			off, err := arr.index(idx)
			if err != nil {
				return fmt.Errorf("%s: %s: %v", f.unit.Name, lhs.Name, err)
			}
			arr.Data[off] = val
		}
		it.proc.Compute(it.ops + 1)
		return nil

	case *ast.Do:
		flo, err := it.eval(f, st.Lo)
		if err != nil {
			return err
		}
		fhi, err := it.eval(f, st.Hi)
		if err != nil {
			return err
		}
		fstep := 1.0
		if st.Step != nil {
			if fstep, err = it.eval(f, st.Step); err != nil {
				return err
			}
		}
		// F77 truncates the parameters to an INTEGER index
		lo, hi, step := int(flo), int(fhi), int(fstep)
		if step == 0 {
			return fmt.Errorf("%s: zero loop step", f.unit.Name)
		}
		v := f.scalars[st.Var]
		if v == nil {
			z := 0.0
			v = &z
			f.scalars[st.Var] = v
		}
		i := lo
		for ; (step > 0 && i <= hi) || (step < 0 && i >= hi); i += step {
			*v = float64(i)
			if err := it.execBody(f, st.Body); err != nil {
				return err
			}
		}
		*v = float64(i) // F77: the first value that failed the test
		return nil

	case *ast.If:
		it.ops = 0
		c, err := it.eval(f, st.Cond)
		if err != nil {
			return err
		}
		it.proc.Compute(it.ops)
		if c != 0 {
			return it.execBody(f, st.Then)
		}
		return it.execBody(f, st.Else)

	case *ast.Call:
		callee := it.prog.Proc(st.Name)
		if callee == nil {
			return fmt.Errorf("%s: call to unknown procedure %s", f.unit.Name, st.Name)
		}
		nf, err := it.newFrame(callee, st.Args, f)
		if err != nil {
			return err
		}
		it.frames = append(it.frames, f)
		err = it.execBody(nf, callee.Body)
		it.frames = it.frames[:len(it.frames)-1]
		if errors.Is(err, errReturn) {
			err = nil
		}
		return err

	case *ast.Return:
		return errReturn

	case *ast.Message:
		switch st.Op {
		case ast.MsgSend:
			it.setTraceCtx(f, st, "send")
			return it.execSend(f, st)
		case ast.MsgRecv:
			it.setTraceCtx(f, st, "recv")
			return it.execRecv(f, st)
		case ast.MsgBcast:
			it.setTraceCtx(f, st, "bcast")
			return it.execBroadcast(f, st)
		case ast.MsgAllGather:
			it.setTraceCtx(f, st, "allgather")
			return it.execAllGather(f, st)
		case ast.MsgPostRecv:
			it.setTraceCtx(f, st, "post")
			return it.execPostRecv(f, st)
		case ast.MsgWaitRecv:
			it.setTraceCtx(f, st, "wait")
			return it.execWaitRecv(f, st)
		case ast.MsgPostBcast:
			it.setTraceCtx(f, st, "bcast")
			return it.execPostBcast(f, st)
		case ast.MsgWaitBcast:
			it.setTraceCtx(f, st, "bcast")
			return it.execWaitBcast(f, st)
		}
	case *ast.Remap:
		it.setTraceCtx(f, st, "remap")
		return it.execRemap(f, st)
	case *ast.GlobalReduce:
		it.setTraceCtx(f, st, "reduce")
		return it.execGlobalReduce(f, st)

	case *ast.Decomposition, *ast.Align, *ast.Distribute:
		return nil // directives are no-ops at run time
	}
	return fmt.Errorf("%s: cannot execute %T", f.unit.Name, s)
}

// evalSubs evaluates subscripts to integers.
func (it *treeInterp) evalSubs(f *treeFrame, subs []ast.Expr) ([]int, error) {
	idx := make([]int, len(subs))
	for i, s := range subs {
		v, err := it.evalInt(f, s)
		if err != nil {
			return nil, err
		}
		idx[i] = v
	}
	return idx, nil
}

func (it *treeInterp) evalInt(f *treeFrame, e ast.Expr) (int, error) {
	v, err := it.eval(f, e)
	if err != nil {
		return 0, err
	}
	return int(math.Round(v)), nil
}

func itEval(it *treeInterp, f *treeFrame, e ast.Expr) (float64, error) { return it.eval(f, e) }

func (it *treeInterp) eval(f *treeFrame, e ast.Expr) (float64, error) {
	switch x := e.(type) {
	case *ast.IntLit:
		return float64(x.Value), nil
	case *ast.RealLit:
		return x.Value, nil
	case *ast.Ident:
		if c, ok := f.consts[x.Name]; ok {
			return float64(c), nil
		}
		if s, ok := f.scalars[x.Name]; ok {
			return *s, nil
		}
		if x.Name == "n$proc" {
			return float64(it.nproc), nil
		}
		return 0, fmt.Errorf("%s: unknown variable %s", f.unit.Name, x.Name)
	case *ast.ArrayRef:
		arr := f.arrays[x.Name]
		if arr == nil {
			return 0, fmt.Errorf("%s: unknown array %s", f.unit.Name, x.Name)
		}
		idx, err := it.evalSubs(f, x.Subs)
		if err != nil {
			return 0, err
		}
		off, err := arr.index(idx)
		if err != nil {
			return 0, fmt.Errorf("%s: %s: %v", f.unit.Name, x.Name, err)
		}
		return arr.Data[off], nil
	case *ast.Unary:
		v, err := it.eval(f, x.X)
		if err != nil {
			return 0, err
		}
		it.ops++
		if x.Op == "-" {
			return -v, nil
		}
		if v == 0 {
			return 1, nil
		}
		return 0, nil
	case *ast.Binary:
		a, err := it.eval(f, x.X)
		if err != nil {
			return 0, err
		}
		b, err := it.eval(f, x.Y)
		if err != nil {
			return 0, err
		}
		it.ops++
		switch x.Op {
		case ast.OpAdd:
			return a + b, nil
		case ast.OpSub:
			return a - b, nil
		case ast.OpMul:
			return a * b, nil
		case ast.OpDiv:
			if treeIsIntExpr(x.X, f) && treeIsIntExpr(x.Y, f) {
				if int(b) == 0 {
					return 0, fmt.Errorf("%s: integer division by zero", f.unit.Name)
				}
				return float64(int(a) / int(b)), nil
			}
			return a / b, nil
		case ast.OpPow:
			return math.Pow(a, b), nil
		case ast.OpEQ:
			return treeB2f(a == b), nil
		case ast.OpNE:
			return treeB2f(a != b), nil
		case ast.OpLT:
			return treeB2f(a < b), nil
		case ast.OpLE:
			return treeB2f(a <= b), nil
		case ast.OpGT:
			return treeB2f(a > b), nil
		case ast.OpGE:
			return treeB2f(a >= b), nil
		case ast.OpAnd:
			return treeB2f(a != 0 && b != 0), nil
		case ast.OpOr:
			return treeB2f(a != 0 || b != 0), nil
		}
		return 0, fmt.Errorf("bad operator %v", x.Op)
	case *ast.FuncCall:
		return it.evalIntrinsic(f, x)
	}
	return 0, fmt.Errorf("cannot evaluate %T", e)
}

func treeB2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// treeIsIntExpr decides whether an operand is integer-typed (Fortran
// integer division truncates). Conservative: literals and variables of
// integer implicit type.
func treeIsIntExpr(e ast.Expr, f *treeFrame) bool {
	switch x := e.(type) {
	case *ast.IntLit:
		return true
	case *ast.RealLit:
		return false
	case *ast.Ident:
		if _, ok := f.consts[x.Name]; ok {
			return true
		}
		sym := f.unit.Symbols.Lookup(x.Name)
		if sym != nil {
			return sym.Type == ast.TypeInteger
		}
		c := x.Name[0]
		return (c >= 'i' && c <= 'n') || x.Name == "my$p"
	case *ast.Binary:
		switch x.Op {
		case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv:
			return treeIsIntExpr(x.X, f) && treeIsIntExpr(x.Y, f)
		}
		return false
	case *ast.Unary:
		return treeIsIntExpr(x.X, f)
	case *ast.FuncCall:
		switch x.Name {
		case "MOD", "first$", "myproc":
			return true
		case "MIN", "MAX":
			for _, a := range x.Args {
				if !treeIsIntExpr(a, f) {
					return false
				}
			}
			return true
		}
		return false
	}
	return false
}

func (it *treeInterp) evalIntrinsic(f *treeFrame, x *ast.FuncCall) (float64, error) {
	args := make([]float64, len(x.Args))
	for i, a := range x.Args {
		v, err := it.eval(f, a)
		if err != nil {
			return 0, err
		}
		args[i] = v
	}
	it.ops++
	// the oracle carries the plan's two intrinsic fixes (arity, MOD's
	// truncated divisor) so the two agree on which programs fail
	arity := map[string]int{"myproc": 0, "MOD": 2, "mod": 2, "ABS": 1, "abs": 1, "SQRT": 1, "sqrt": 1,
		"first$": 3, "F": 1, "f": 1, "G": 1, "g": 1}
	if n, ok := arity[x.Name]; ok && len(args) != n {
		return 0, fmt.Errorf("%s: %s takes %d argument(s), got %d", f.unit.Name, x.Name, n, len(args))
	}
	switch x.Name {
	case "myproc":
		return float64(it.p), nil
	case "MOD", "mod":
		if int(args[1]) == 0 {
			return 0, fmt.Errorf("%s: MOD by zero", f.unit.Name)
		}
		return float64(int(args[0]) % int(args[1])), nil
	case "MIN", "min", "MAX", "max":
		if len(args) == 0 {
			return 0, fmt.Errorf("%s: %s takes at least 1 argument", f.unit.Name, x.Name)
		}
		m := args[0]
		for _, v := range args[1:] {
			if max := x.Name == "MAX" || x.Name == "max"; (max && v > m) || (!max && v < m) {
				m = v
			}
		}
		return m, nil
	case "ABS", "abs":
		return math.Abs(args[0]), nil
	case "SQRT", "sqrt":
		return math.Sqrt(args[0]), nil
	case "first$":
		// smallest x >= min with x ≡ anchor (mod step)
		anchor, min, step := int(args[0]), int(args[1]), int(args[2])
		if step <= 0 {
			return 0, fmt.Errorf("first$: bad step %d", step)
		}
		r := ((anchor-min)%step + step) % step
		return float64(min + r), nil
	case "F", "f":
		// the paper's generic function F: an arbitrary arithmetic map
		return 0.5*args[0] + 1.0, nil
	case "G", "g":
		return 0.25*args[0] + 2.0, nil
	}
	return 0, fmt.Errorf("%s: unknown function %s", f.unit.Name, x.Name)
}

// secBounds evaluates a section's per-dimension bounds.
func (it *treeInterp) secBounds(f *treeFrame, sec []ast.SecDim) ([][2]int, bool, error) {
	out := make([][2]int, len(sec))
	empty := false
	for d, s := range sec {
		lo, err := it.evalInt(f, s.Lo)
		if err != nil {
			return nil, false, err
		}
		hi, err := it.evalInt(f, s.Hi)
		if err != nil {
			return nil, false, err
		}
		out[d] = [2]int{lo, hi}
		if hi < lo {
			empty = true
		}
	}
	return out, empty, nil
}

// enumerate lists the flat offsets of a section in deterministic
// (row-major) order, clipped to the array's declared bounds.
func enumerate(arr *Array, bounds [][2]int) []int {
	// clip
	cl := make([][2]int, len(bounds))
	for d, b := range bounds {
		lo, hi := b[0], b[1]
		if lo < arr.Lo[d] {
			lo = arr.Lo[d]
		}
		if hi > arr.Hi[d] {
			hi = arr.Hi[d]
		}
		if hi < lo {
			return nil
		}
		cl[d] = [2]int{lo, hi}
	}
	var out []int
	idx := make([]int, len(cl))
	for d := range cl {
		idx[d] = cl[d][0]
	}
	for {
		off, err := arr.index(idx)
		if err == nil {
			out = append(out, off)
		}
		d := len(cl) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] <= cl[d][1] {
				break
			}
			idx[d] = cl[d][0]
			d--
		}
		if d < 0 {
			return out
		}
	}
}

func (it *treeInterp) execSend(f *treeFrame, st *ast.Message) error {
	arr := f.arrays[st.Array]
	if arr == nil {
		return fmt.Errorf("send: unknown array %s", st.Array)
	}
	bounds, empty, err := it.secBounds(f, st.Sec)
	if err != nil {
		return err
	}
	if empty {
		return nil
	}
	dest, err := it.evalInt(f, st.Peer)
	if err != nil {
		return err
	}
	if dest < 0 || dest >= it.nproc || dest == it.p {
		return nil
	}
	offs := enumerate(arr, bounds)
	if len(offs) == 0 {
		return nil
	}
	// stage the payload in the machine's scratch buffer, one reused
	// buffer per processor, so generated sends allocate nothing
	data := it.proc.Scratch(len(offs))
	for i, o := range offs {
		data[i] = arr.Data[o]
	}
	it.proc.Send(dest, data)
	return nil
}

func (it *treeInterp) execRecv(f *treeFrame, st *ast.Message) error {
	arr := f.arrays[st.Array]
	if arr == nil {
		return fmt.Errorf("recv: unknown array %s", st.Array)
	}
	bounds, empty, err := it.secBounds(f, st.Sec)
	if err != nil {
		return err
	}
	if empty {
		return nil
	}
	src, err := it.evalInt(f, st.Peer)
	if err != nil {
		return err
	}
	if src < 0 || src >= it.nproc || src == it.p {
		return nil
	}
	offs := enumerate(arr, bounds)
	if len(offs) == 0 {
		return nil
	}
	data := it.proc.Recv(src)
	if len(data) != len(offs) {
		return fmt.Errorf("recv %s: message size %d != section size %d (proc %d from %d)",
			st.Array, len(data), len(offs), it.p, src)
	}
	for i, o := range offs {
		arr.Data[o] = data[i]
	}
	return nil
}

func (it *treeInterp) execBroadcast(f *treeFrame, st *ast.Message) error {
	arr := f.arrays[st.Array]
	if arr == nil {
		return fmt.Errorf("broadcast: unknown array %s", st.Array)
	}
	bounds, empty, err := it.secBounds(f, st.Sec)
	if err != nil {
		return err
	}
	if empty {
		return nil
	}
	root, err := it.evalInt(f, st.Peer)
	if err != nil {
		return err
	}
	if root < 0 || root >= it.nproc {
		return fmt.Errorf("broadcast %s: bad root %d", st.Array, root)
	}
	g, err := it.receivers(f, st.To)
	if err != nil || it.p != root && !g.Has(it.p, it.nproc) {
		return err
	}
	offs := enumerate(arr, bounds)
	var data []float64
	if it.p == root {
		data = it.proc.Scratch(len(offs))
		for i, o := range offs {
			data[i] = arr.Data[o]
		}
	}
	data = it.proc.Broadcast(root, g, data)
	if it.p != root {
		if len(data) != len(offs) {
			return fmt.Errorf("broadcast %s: size mismatch %d != %d", st.Array, len(data), len(offs))
		}
		for i, o := range offs {
			arr.Data[o] = data[i]
		}
	}
	return nil
}

// receivers is the oracle's "to" clause: the owners of its section,
// along the clause's shape.
func (it *treeInterp) receivers(f *treeFrame, r *ast.Receivers) (machine.Group, error) {
	if r == nil {
		return machine.All, nil
	}
	g, err := it.owners(f, r)
	g.Ring = r.Ring
	return g, err
}

// owners finds the owners of a "to" clause's section by asking the
// distribution of every subscript, as the modular range machine.Group
// names (the first owner whose predecessor is none).
func (it *treeInterp) owners(f *treeFrame, r *ast.Receivers) (machine.Group, error) {
	arr := f.arrays[r.Array]
	if arr == nil {
		return machine.All, fmt.Errorf("to clause: unknown array %s", r.Array)
	}
	lo, err := it.evalInt(f, r.Lo)
	if err != nil {
		return machine.All, err
	}
	hi, err := it.evalInt(f, r.Hi)
	if err != nil || arr.Dist == nil || arr.Dist.DistDim() != r.Dim {
		return machine.All, err
	}
	np, n := it.nproc, 0
	own := make([]bool, np)
	for i := max(lo, arr.Lo[r.Dim]); i <= min(hi, arr.Hi[r.Dim]); i++ {
		if q := (arr.Dist.OwnerIndex(i)%np + np) % np; !own[q] {
			own[q], n = true, n+1
		}
	}
	for q := range own {
		if own[q] && !own[(q+np-1)%np] {
			return machine.Group{First: q, N: n}, nil
		}
	}
	if n == np {
		return machine.All, nil
	}
	return machine.Group{}, nil
}

// execAllGather makes a distributed section fully replicated. It is
// lowered as a binomial gather of owner blocks to processor 0 followed
// by a tree broadcast of the concatenation: 2(P-1) messages on
// 2·ceil(log2 P) critical-path steps. The previous lowering was an
// all-to-all exchange — P(P-1) messages with every processor
// serialized on P-1 receives in ascending pid order.
func (it *treeInterp) execAllGather(f *treeFrame, st *ast.Message) error {
	arr := f.arrays[st.Array]
	if arr == nil {
		return fmt.Errorf("allgather: unknown array %s", st.Array)
	}
	if arr.Dist == nil || arr.Dist.IsReplicated() {
		return nil // data already everywhere
	}
	bounds, empty, err := it.secBounds(f, st.Sec)
	if err != nil {
		return err
	}
	if empty || it.nproc == 1 {
		return nil
	}
	parts := it.ownerParts(arr, bounds)
	// every processor computes the same parts sizes, so the
	// concatenation's layout (ascending owner) needs no headers and
	// both ends of every link agree on whether a block range is empty
	rangeWords := func(lo, hi int) int {
		if hi > it.nproc {
			hi = it.nproc
		}
		n := 0
		for q := lo; q < hi; q++ {
			n += len(parts[q])
		}
		return n
	}
	total := rangeWords(0, it.nproc)
	if total == 0 {
		return nil
	}
	// gather up the tree: before round k, processor p (a multiple of 2k)
	// holds the blocks of owners [p, min(p+k, nproc)); a processor with
	// bit k set sends its range to p-k and leaves
	buf := make([]float64, 0, total)
	for _, o := range parts[it.p] {
		buf = append(buf, arr.Data[o])
	}
	for k := 1; k < it.nproc; k <<= 1 {
		if it.p&k != 0 {
			if len(buf) > 0 {
				it.proc.Send(it.p-k, buf)
			}
			break
		}
		if it.p+k < it.nproc {
			want := rangeWords(it.p+k, it.p+2*k)
			if want == 0 {
				continue
			}
			data := it.proc.Recv(it.p + k)
			if len(data) != want {
				return fmt.Errorf("allgather %s: size mismatch from %d", st.Array, it.p+k)
			}
			buf = append(buf, data...)
		}
	}
	// processor 0 now holds the full concatenation; the tree broadcast
	// distributes it and every processor unpacks by the shared layout
	full := it.proc.Broadcast(0, machine.All, buf)
	if len(full) != total {
		return fmt.Errorf("allgather %s: gathered %d words, want %d", st.Array, len(full), total)
	}
	pos := 0
	for q := 0; q < it.nproc; q++ {
		for _, o := range parts[q] {
			arr.Data[o] = full[pos]
			pos++
		}
	}
	return nil
}

// ownerParts splits a section's offsets by owning processor.
func (it *treeInterp) ownerParts(arr *Array, bounds [][2]int) [][]int {
	parts := make([][]int, it.nproc)
	dim := arr.Dist.DistDim()
	// clip and enumerate with ownership by the distributed coordinate
	cl := make([][2]int, len(bounds))
	for d, b := range bounds {
		lo, hi := b[0], b[1]
		if lo < arr.Lo[d] {
			lo = arr.Lo[d]
		}
		if hi > arr.Hi[d] {
			hi = arr.Hi[d]
		}
		if hi < lo {
			return parts
		}
		cl[d] = [2]int{lo, hi}
	}
	idx := make([]int, len(cl))
	for d := range cl {
		idx[d] = cl[d][0]
	}
	for {
		off, err := arr.index(idx)
		if err == nil {
			owner := arr.Dist.OwnerIndex(idx[dim])
			if owner >= 0 && owner < it.nproc {
				parts[owner] = append(parts[owner], off)
			}
		}
		d := len(cl) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] <= cl[d][1] {
				break
			}
			idx[d] = cl[d][0]
			d--
		}
		if d < 0 {
			return parts
		}
	}
}

// execGlobalReduce combines every processor's private copy of a scalar
// and leaves the result everywhere with one machine.AllReduce, as the
// plan's globalReduce does.
func (it *treeInterp) execGlobalReduce(f *treeFrame, st *ast.GlobalReduce) error {
	combine, ok := reduceCombine(st.Op)
	if !ok {
		return &UnknownReduceOpError{Var: st.Var, Op: st.Op}
	}
	sc := f.scalars[st.Var]
	if sc == nil {
		v := 0.0
		sc = &v
		f.scalars[st.Var] = sc
	}
	if it.nproc > 1 {
		*sc = it.proc.AllReduce(*sc, combine)
	}
	return nil
}

// execPostRecv posts the receive half of a split halo exchange. Like
// execRecv it is a no-op for out-of-range or self sources and empty
// sections — in those cases no entry is recorded and the matching
// waitrecv is a no-op too, which is what makes the schedule pass's
// unguarded waits safe under the post's original guard.
func (it *treeInterp) execPostRecv(f *treeFrame, st *ast.Message) error {
	arr := f.arrays[st.Array]
	if arr == nil {
		return fmt.Errorf("postrecv: unknown array %s", st.Array)
	}
	bounds, empty, err := it.secBounds(f, st.Sec)
	if err != nil {
		return err
	}
	if empty {
		return nil
	}
	src, err := it.evalInt(f, st.Peer)
	if err != nil {
		return err
	}
	if src < 0 || src >= it.nproc || src == it.p {
		return nil
	}
	offs := enumerate(arr, bounds)
	if len(offs) == 0 {
		return nil
	}
	if it.posted == nil {
		it.posted = map[int32]*treePosted{}
	}
	it.posted[st.Tag] = &treePosted{h: new(machine.Handle), arr: arr, offs: offs}
	it.proc.IRecvInto(it.posted[st.Tag].h, src)
	return nil
}

// execWaitRecv completes the postrecv with the same tag, storing the
// message into the section captured at post time.
func (it *treeInterp) execWaitRecv(f *treeFrame, st *ast.Message) error {
	po := it.posted[st.Tag]
	if po == nil {
		return nil // the post's guard was false: nothing in flight
	}
	delete(it.posted, st.Tag)
	data := it.proc.WaitHandle(po.h)
	if len(data) != len(po.offs) {
		return fmt.Errorf("waitrecv %s: message size %d != section size %d (proc %d)",
			st.Array, len(data), len(po.offs), it.p)
	}
	for i, o := range po.offs {
		po.arr.Data[o] = data[i]
	}
	return nil
}

// execPostBcast posts the send half of a split-phase broadcast: the
// root's tree sends happen now, every other processor records what to
// wait for.
func (it *treeInterp) execPostBcast(f *treeFrame, st *ast.Message) error {
	arr := f.arrays[st.Array]
	if arr == nil {
		return fmt.Errorf("postbcast: unknown array %s", st.Array)
	}
	bounds, empty, err := it.secBounds(f, st.Sec)
	if err != nil {
		return err
	}
	if empty {
		return nil
	}
	root, err := it.evalInt(f, st.Peer)
	if err != nil {
		return err
	}
	if root < 0 || root >= it.nproc {
		return fmt.Errorf("postbcast %s: bad root %d", st.Array, root)
	}
	g, err := it.receivers(f, st.To)
	if err != nil || it.p != root && !g.Has(it.p, it.nproc) {
		return err
	}
	offs := enumerate(arr, bounds)
	var data []float64
	if it.p == root {
		data = it.proc.Scratch(len(offs))
		for i, o := range offs {
			data[i] = arr.Data[o]
		}
	}
	if it.posted == nil {
		it.posted = map[int32]*treePosted{}
	}
	po := &treePosted{h: new(machine.Handle), arr: arr, offs: offs, isRoot: it.p == root}
	it.proc.PostBcastInto(po.h, root, g, data)
	it.posted[st.Tag] = po
	return nil
}

// execWaitBcast completes the postbcast with the same tag.
func (it *treeInterp) execWaitBcast(f *treeFrame, st *ast.Message) error {
	po := it.posted[st.Tag]
	if po == nil {
		return nil
	}
	delete(it.posted, st.Tag)
	data := it.proc.WaitHandle(po.h)
	if po.isRoot {
		return nil // the root supplied the data; its copy is current
	}
	if len(data) != len(po.offs) {
		return fmt.Errorf("waitbcast %s: size mismatch %d != %d", st.Array, len(data), len(po.offs))
	}
	for i, o := range po.offs {
		po.arr.Data[o] = data[i]
	}
	return nil
}

func (it *treeInterp) execRemap(f *treeFrame, st *ast.Remap) error {
	arr := f.arrays[st.Array]
	if arr == nil {
		return fmt.Errorf("remap: unknown array %s", st.Array)
	}
	sizes := make([]int, len(arr.Lo))
	for d := range sizes {
		sizes[d] = arr.Hi[d] - arr.Lo[d] + 1
	}
	newDist, err := decomp.NewDist(decomp.NewDecomp(st.To...), sizes, it.nproc)
	if err != nil {
		return fmt.Errorf("remap %s: %v", st.Array, err)
	}
	old := arr.Dist
	if st.InPlace || old == nil || old.IsReplicated() {
		arr.Dist = newDist
		return nil
	}
	if old.RemapWords(newDist) > 0 {
		// physical remap, the personalized exchange spelled out: for every
		// ordered pair of processors, the elements that belonged to the
		// first and now belong to the second, found by testing every
		// element of the array; this processor plays the first of the
		// pair for its sends and the second for its receives. (A
		// replicated target belongs to everyone.)
		odim, ndim := old.DistDim(), newDist.DistDim()
		moving := func(from, to int) []int {
			var offs []int
			idx := append([]int(nil), arr.Lo...)
			for d := len(idx) - 1; d >= 0; {
				if old.OwnerIndex(idx[odim]) == from && (ndim < 0 || newDist.OwnerIndex(idx[ndim]) == to) {
					off, _ := arr.index(idx)
					offs = append(offs, off)
				}
				for d = len(idx) - 1; d >= 0; d-- {
					if idx[d]++; idx[d] <= arr.Hi[d] {
						break
					}
					idx[d] = arr.Lo[d]
				}
			}
			return offs
		}
		for q := 0; q < it.nproc; q++ {
			if offs := moving(it.p, q); q != it.p && len(offs) > 0 {
				data := it.proc.Scratch(len(offs))
				for i, o := range offs {
					data[i] = arr.Data[o]
				}
				it.proc.Send(q, data)
			}
		}
		for q := 0; q < it.nproc; q++ {
			if offs := moving(q, it.p); q != it.p && len(offs) > 0 {
				data := it.proc.Recv(q)
				if len(data) != len(offs) {
					return fmt.Errorf("remap %s: %d words from %d, want %d", st.Array, len(data), q, len(offs))
				}
				for i, o := range offs {
					arr.Data[o] = data[i]
				}
			}
		}
		it.proc.CountRemap(0, 0)
	}
	arr.Dist = newDist
	return nil
}
