package ast

// Equality of expressions and statements is equality of their printed
// form (print.go) decided on the trees, without printing. The printed
// grammar is unambiguous — a name starts with a letter, '_' or '$', a
// binary expression is always parenthesized, section bounds and
// arguments are separated by characters no expression contains outside
// parentheses — so two trees print alike exactly when they have the
// same shape, with three exceptions the functions below allow for: an
// array reference and a function call of the same name and arguments
// print alike; so do a literal and the negation of its absolute value,
// and an integer and a real literal of the same value (those fall back
// to comparing the text); and what the printer leaves out (source
// positions, a CALL's site number, ALIGN offsets, DECOMPOSITION
// statements, a Remap's From) is not compared.

// ExprEqual reports whether two expressions print alike.
func ExprEqual(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case *Ident:
		y, ok := b.(*Ident)
		return ok && x.Name == y.Name
	case *Binary:
		y, ok := b.(*Binary)
		return ok && x.Op == y.Op && ExprEqual(x.X, y.X) && ExprEqual(x.Y, y.Y)
	case *ArrayRef:
		name, args, ok := applyOf(b)
		return ok && x.Name == name && exprsEqual(x.Subs, args)
	case *FuncCall:
		name, args, ok := applyOf(b)
		return ok && x.Name == name && exprsEqual(x.Args, args)
	case *IntLit:
		if y, ok := b.(*IntLit); ok {
			return x.Value == y.Value
		}
	case *Unary:
		if y, ok := b.(*Unary); ok {
			return x.Op == y.Op && ExprEqual(x.X, y.X)
		}
	}
	// a literal or a negation against something else: only another
	// literal or negation can print the same
	switch b.(type) {
	case *IntLit, *RealLit, *Unary:
		return a.String() == b.String()
	}
	return false
}

// applyOf splits the two node kinds that print as name(args).
func applyOf(e Expr) (string, []Expr, bool) {
	switch x := e.(type) {
	case *ArrayRef:
		return x.Name, x.Subs, true
	case *FuncCall:
		return x.Name, x.Args, true
	}
	return "", nil, false
}

func exprsEqual(a, b []Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !ExprEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func secEqual(a, b []SecDim) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !ExprEqual(a[i].Lo, b[i].Lo) || !ExprEqual(a[i].Hi, b[i].Hi) {
			return false
		}
	}
	return true
}

// Equal reports whether two clauses print alike (nil: none).
func (r *Receivers) Equal(o *Receivers) bool {
	if r == nil || o == nil {
		return r == o
	}
	return r.Array == o.Array && r.Dim == o.Dim && r.Rank == o.Rank && r.Ring == o.Ring && ExprEqual(r.Lo, o.Lo) && ExprEqual(r.Hi, o.Hi)
}

func specsEqual(a, b []DistSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// StmtEqual reports whether two statements print alike, bodies
// included. Code generation uses it to recognise duplicate
// communication at one program point (§5.4).
func StmtEqual(a, b Stmt) bool {
	switch x := a.(type) {
	case *Assign:
		y, ok := b.(*Assign)
		return ok && ExprEqual(x.Lhs, y.Lhs) && ExprEqual(x.Rhs, y.Rhs)
	case *Do:
		y, ok := b.(*Do)
		return ok && x.Var == y.Var && ExprEqual(x.Lo, y.Lo) && ExprEqual(x.Hi, y.Hi) &&
			ExprEqual(x.Step, y.Step) && StmtsEqual(x.Body, y.Body)
	case *If:
		y, ok := b.(*If)
		return ok && ExprEqual(x.Cond, y.Cond) && StmtsEqual(x.Then, y.Then) &&
			len(x.Else) > 0 == (len(y.Else) > 0) && StmtsEqual(x.Else, y.Else)
	case *Call:
		y, ok := b.(*Call)
		return ok && x.Name == y.Name && exprsEqual(x.Args, y.Args)
	case *Return:
		_, ok := b.(*Return)
		return ok
	case *Decomposition:
		_, ok := b.(*Decomposition)
		return ok
	case *Align:
		y, ok := b.(*Align)
		return ok && x.Array == y.Array && x.Target == y.Target
	case *Distribute:
		y, ok := b.(*Distribute)
		return ok && x.Target == y.Target && specsEqual(x.Specs, y.Specs)
	case *Message:
		y, ok := b.(*Message)
		return ok && x.Op == y.Op && x.Array == y.Array && x.Tag == y.Tag && secEqual(x.Sec, y.Sec) &&
			ExprEqual(x.Peer, y.Peer) && x.To.Equal(y.To)
	case *GlobalReduce:
		y, ok := b.(*GlobalReduce)
		return ok && x.Var == y.Var && reduceName(x.Op) == reduceName(y.Op)
	case *Remap:
		y, ok := b.(*Remap)
		return ok && x.Array == y.Array && x.InPlace == y.InPlace && specsEqual(x.To, y.To)
	}
	return false
}

// StmtsEqual compares two statement lists the way they print:
// DECOMPOSITION statements, which the printer takes from the symbol
// table instead, are passed over.
func StmtsEqual(a, b []Stmt) bool {
	i, j := 0, 0
	for {
		for i < len(a) && isDecomposition(a[i]) {
			i++
		}
		for j < len(b) && isDecomposition(b[j]) {
			j++
		}
		if i == len(a) || j == len(b) {
			return i == len(a) && j == len(b)
		}
		if !StmtEqual(a[i], b[j]) {
			return false
		}
		i++
		j++
	}
}

func isDecomposition(s Stmt) bool {
	_, ok := s.(*Decomposition)
	return ok
}
