package ast

// WalkStmts applies fn to every statement in body, recursively, in
// source order. If fn returns false the children of that statement are
// not visited.
func WalkStmts(body []Stmt, fn func(Stmt) bool) {
	for _, s := range body {
		if !fn(s) {
			continue
		}
		switch st := s.(type) {
		case *Do:
			WalkStmts(st.Body, fn)
		case *If:
			WalkStmts(st.Then, fn)
			WalkStmts(st.Else, fn)
		}
	}
}

// WalkExprs applies fn to every expression appearing in body, including
// subexpressions (pre-order).
func WalkExprs(body []Stmt, fn func(Expr)) {
	var exprs []Expr
	WalkStmts(body, func(s Stmt) bool {
		exprs = appendExprs(exprs[:0], s)
		for _, e := range exprs {
			WalkExpr(e, fn)
		}
		return true
	})
}

// WalkExpr applies fn to e and every subexpression of it, pre-order.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *ArrayRef:
		for _, sub := range x.Subs {
			WalkExpr(sub, fn)
		}
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *Binary:
		WalkExpr(x.X, fn)
		WalkExpr(x.Y, fn)
	case *Unary:
		WalkExpr(x.X, fn)
	}
}

// StmtExprs returns the top-level expressions contained directly in s
// (not those of nested statements).
func StmtExprs(s Stmt) []Expr {
	if c, ok := s.(*Call); ok {
		return c.Args
	}
	return appendExprs(nil, s)
}

// appendExprs appends StmtExprs(s) to dst.
func appendExprs(dst []Expr, s Stmt) []Expr {
	switch st := s.(type) {
	case *Assign:
		return append(dst, st.Lhs, st.Rhs)
	case *Do:
		dst = append(dst, st.Lo, st.Hi)
		if st.Step != nil {
			dst = append(dst, st.Step)
		}
		return dst
	case *If:
		return append(dst, st.Cond)
	case *Call:
		return append(dst, st.Args...)
	case *Send:
		return secExprs(dst, st.Dest, st.Sec)
	case *Recv:
		return secExprs(dst, st.Src, st.Sec)
	case *Broadcast:
		return st.To.exprs(secExprs(dst, st.Root, st.Sec))
	case *AllGather:
		return secExprs(dst, nil, st.Sec)
	case *PostRecv:
		return secExprs(dst, st.Src, st.Sec)
	case *PostBcast:
		return st.To.exprs(secExprs(dst, st.Root, st.Sec))
	}
	return dst
}

// secExprs appends a communication statement's peer expression (nil:
// it has none) and the bounds of its section to dst.
func secExprs(dst []Expr, peer Expr, sec []SecDim) []Expr {
	if peer != nil {
		dst = append(dst, peer)
	}
	for _, d := range sec {
		dst = append(dst, d.Lo, d.Hi)
	}
	return dst
}

// exprs appends the clause's bounds to out.
func (r *Receivers) exprs(out []Expr) []Expr {
	if r == nil {
		return out
	}
	return append(out, r.Lo, r.Hi)
}

// CloneExpr returns a deep copy of e.
func CloneExpr(e Expr) Expr { return Subst(e, nil) }

// Subst returns a deep copy of e in which every identifier that env
// maps is replaced by a copy of its expression. Array and function
// names are not touched.
func Subst(e Expr, env map[string]Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Ident:
		if r, ok := env[x.Name]; ok {
			return CloneExpr(r)
		}
		return &Ident{Name: x.Name}
	case *IntLit:
		return &IntLit{Value: x.Value}
	case *RealLit:
		return &RealLit{Value: x.Value}
	case *ArrayRef:
		return &ArrayRef{Name: x.Name, Subs: substAll(x.Subs, env)}
	case *FuncCall:
		return &FuncCall{Name: x.Name, Args: substAll(x.Args, env)}
	case *Binary:
		return &Binary{Op: x.Op, X: Subst(x.X, env), Y: Subst(x.Y, env)}
	case *Unary:
		return &Unary{Op: x.Op, X: Subst(x.X, env)}
	}
	return e
}

func substAll(es []Expr, env map[string]Expr) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = Subst(e, env)
	}
	return out
}

// CloneStmts returns a copy of body, each statement copied by CloneStmt.
func CloneStmts(body []Stmt) []Stmt {
	out := make([]Stmt, len(body))
	for i, s := range body {
		out[i] = CloneStmt(s)
	}
	return out
}

// CloneStmt returns a copy of s in which every loop, branch and call is a
// new node, so a loop's bounds or a call's name can be set on the copy
// alone and the copy's calls are call sites of their own. Everything else
// — expressions, and statements of other kinds — is shared: nothing
// writes a statement it did not create.
func CloneStmt(s Stmt) Stmt {
	switch st := s.(type) {
	case *Do:
		c := *st
		c.Body = CloneStmts(st.Body)
		return &c
	case *If:
		c := *st
		c.Then, c.Else = CloneStmts(st.Then), CloneStmts(st.Else)
		return &c
	case *Call:
		c := *st
		return &c
	}
	return s
}

// CloneProcedure copies a procedure under a new name: its body by
// CloneStmts, its symbol table with each symbol's dimension list.
func CloneProcedure(p *Procedure, newName string) *Procedure {
	syms := NewSymbolTable()
	for _, s := range p.Symbols.Symbols() {
		cp := *s
		cp.Dims = append([]Extent(nil), s.Dims...)
		syms.Define(&cp)
	}
	return &Procedure{
		Name:    newName,
		IsMain:  p.IsMain,
		Params:  append([]string(nil), p.Params...),
		Symbols: syms,
		Body:    CloneStmts(p.Body),
		Commons: p.Commons,
	}
}
