package ast

import (
	"fmt"
	"strconv"
	"strings"
)

// The printer appends to a byte slice: every node has one rendering,
// written once, whether it ends in a listing, in an Expr.String() or in
// a hasher's key material (summary-cache keys take the printed
// procedure without ever holding it as a string).

// Print renders a whole program as Fortran D source text (including any
// generated send/recv/remap statements in the commented library-call
// style used in the paper's output listings).
func Print(p *Program) string {
	var buf []byte
	for i, u := range p.Units {
		if i > 0 {
			buf = append(buf, '\n')
		}
		buf = AppendProcedure(buf, u)
	}
	return string(buf)
}

// AppendProcedure appends the rendering of one unit to dst.
func AppendProcedure(dst []byte, u *Procedure) []byte {
	if u.IsMain {
		dst = append(dst, "      PROGRAM "...)
		dst = append(dst, u.Name...)
	} else {
		dst = append(dst, "      SUBROUTINE "...)
		dst = append(dst, u.Name...)
		dst = append(dst, '(')
		for i, p := range u.Params {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, p...)
		}
		dst = append(dst, ')')
	}
	dst = append(dst, '\n')
	dst = appendDecls(dst, u)
	dst = appendStmts(dst, u.Body, 1)
	return append(dst, "      END\n"...)
}

func appendDecls(dst []byte, u *Procedure) []byte {
	for _, name := range u.Symbols.Order {
		s := u.Symbols.table[name]
		switch s.Kind {
		case SymConstant:
			dst = append(dst, "      PARAMETER ("...)
			dst = append(dst, s.Name...)
			dst = append(dst, " = "...)
			dst = strconv.AppendInt(dst, int64(s.ConstValue), 10)
			dst = append(dst, ")\n"...)
		case SymArray:
			dst = append(dst, "      "...)
			dst = append(dst, s.Type.String()...)
			dst = append(dst, ' ')
			dst = appendExtents(dst, s)
		case SymDecomposition:
			dst = append(dst, "      DECOMPOSITION "...)
			dst = appendExtents(dst, s)
		}
	}
	for _, c := range u.Commons {
		dst = append(dst, "      COMMON /"...)
		dst = append(dst, c.Block...)
		dst = append(dst, "/ "...)
		for i, m := range c.Members {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = append(dst, m...)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// String renders an array as declared, "x(0:15,8)", and a scalar as its name.
func (s *Symbol) String() string {
	return strings.TrimSuffix(strings.TrimSuffix(string(appendExtents(nil, s)), "\n"), "()")
}

// appendExtents renders "name(lo:hi,...)\n", eliding a lower bound of 1.
func appendExtents(dst []byte, s *Symbol) []byte {
	dst = append(dst, s.Name...)
	dst = append(dst, '(')
	for i, d := range s.Dims {
		if i > 0 {
			dst = append(dst, ',')
		}
		if lo, isConst := EvalInt(d.Lo, nil); !isConst || lo != 1 {
			dst = d.Lo.appendTo(dst)
			dst = append(dst, ':')
		}
		dst = d.Hi.appendTo(dst)
	}
	return append(dst, ")\n"...)
}

// indent is the statement indentation at nesting depth 1, two more
// columns per level.
const indent = "      "

func appendIndent(dst []byte, depth int) []byte {
	dst = append(dst, indent...)
	for ; depth > 1; depth-- {
		dst = append(dst, "  "...)
	}
	return dst
}

func appendStmts(dst []byte, body []Stmt, depth int) []byte {
	for _, s := range body {
		if _, ok := s.(*Decomposition); ok {
			continue // re-printed from the symbol table
		}
		dst = appendIndent(dst, depth)
		switch st := s.(type) {
		case *Assign:
			dst = st.Lhs.appendTo(dst)
			dst = append(dst, " = "...)
			dst = st.Rhs.appendTo(dst)
		case *Do:
			dst = append(dst, "do "...)
			dst = append(dst, st.Var...)
			dst = append(dst, " = "...)
			dst = st.Lo.appendTo(dst)
			dst = append(dst, ',')
			dst = st.Hi.appendTo(dst)
			if st.Step != nil {
				dst = append(dst, ',')
				dst = st.Step.appendTo(dst)
			}
			dst = append(dst, '\n')
			dst = appendStmts(dst, st.Body, depth+1)
			dst = appendIndent(dst, depth)
			dst = append(dst, "enddo"...)
		case *If:
			dst = append(dst, "if ("...)
			dst = st.Cond.appendTo(dst)
			dst = append(dst, ") then\n"...)
			dst = appendStmts(dst, st.Then, depth+1)
			if len(st.Else) > 0 {
				dst = appendIndent(dst, depth)
				dst = append(dst, "else\n"...)
				dst = appendStmts(dst, st.Else, depth+1)
			}
			dst = appendIndent(dst, depth)
			dst = append(dst, "endif"...)
		case *Call:
			dst = append(dst, "call "...)
			dst = appendApply(dst, st.Name, st.Args)
		case *Return:
			dst = append(dst, "return"...)
		case *Align:
			dst = append(dst, "ALIGN "...)
			dst = append(dst, st.Array...)
			dst = append(dst, " with "...)
			dst = append(dst, st.Target...)
		case *Distribute:
			dst = append(dst, "DISTRIBUTE "...)
			dst = append(dst, st.Target...)
			dst = appendSpecs(dst, st.Specs)
		case *Message:
			k := st.Op.Kind()
			dst = append(dst, k.Word...)
			dst = append(dst, ' ')
			dst = append(dst, st.Array...)
			if k.Sec {
				dst = appendSection(dst, st.Sec)
			}
			if k.Peer != "" && st.Peer != nil {
				dst = append(dst, ' ')
				dst = append(dst, k.Peer...)
				dst = append(dst, ' ')
				dst = st.Peer.appendTo(dst)
			}
			if k.To {
				dst = st.To.appendTo(dst)
			}
			if k.Tag {
				dst = append(dst, " tag "...)
				dst = strconv.AppendInt(dst, int64(st.Tag), 10)
			}
		case *GlobalReduce:
			dst = append(dst, reduceName(st.Op)...)
			dst = append(dst, ' ')
			dst = append(dst, st.Var...)
		case *Remap:
			if st.InPlace {
				dst = append(dst, "markas "...)
			} else {
				dst = append(dst, "remap "...)
			}
			dst = append(dst, st.Array...)
			dst = appendSpecs(dst, st.To)
		default:
			dst = fmt.Appendf(dst, "! <unknown stmt %T>", s)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// reduceName is the library routine a GlobalReduce prints as; an
// unrecognized operator prints as the sum.
func reduceName(op string) string {
	switch op {
	case "MAX":
		return "globalmax"
	case "MIN":
		return "globalmin"
	}
	return "globalsum"
}

// appendSection renders "(<section>)"; a nil bound prints as ":".
func appendSection(dst []byte, sec []SecDim) []byte {
	dst = append(dst, '(')
	for i, d := range sec {
		if i > 0 {
			dst = append(dst, ',')
		}
		if d.Lo == nil { // a whole dimension
			dst = append(dst, ':')
			continue
		}
		dst = d.Lo.appendTo(dst)
		if !ExprEqual(d.Lo, d.Hi) {
			dst = append(dst, ':')
			dst = d.Hi.appendTo(dst)
		}
	}
	return append(dst, ')')
}

// appendTo renders " to <array>(:,..,lo:hi,..,:)[ ring]" (nothing for nil).
func (r *Receivers) appendTo(dst []byte) []byte {
	if r == nil {
		return dst
	}
	sec := make([]SecDim, r.Rank)
	sec[r.Dim] = SecDim{Lo: r.Lo, Hi: r.Hi}
	dst = append(dst, " to "...)
	dst = append(dst, r.Array...)
	dst = appendSection(dst, sec)
	if r.Ring {
		dst = append(dst, " ring"...)
	}
	return dst
}

func appendSpecs(dst []byte, specs []DistSpec) []byte {
	dst = append(dst, '(')
	for i, sp := range specs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = sp.appendTo(dst)
	}
	return append(dst, ')')
}

// appendApply renders name(arg,...): array references, function calls
// and CALL statements share the shape.
func appendApply(dst []byte, name string, args []Expr) []byte {
	dst = append(dst, name...)
	dst = append(dst, '(')
	for i, a := range args {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = a.appendTo(dst)
	}
	return append(dst, ')')
}

func (e *Ident) appendTo(dst []byte) []byte  { return append(dst, e.Name...) }
func (e *IntLit) appendTo(dst []byte) []byte { return strconv.AppendInt(dst, int64(e.Value), 10) }

// appendTo renders the value as fmt's %g does: the shortest form that
// reads back exactly.
func (e *RealLit) appendTo(dst []byte) []byte {
	return strconv.AppendFloat(dst, e.Value, 'g', -1, 64)
}

func (e *ArrayRef) appendTo(dst []byte) []byte { return appendApply(dst, e.Name, e.Subs) }
func (e *FuncCall) appendTo(dst []byte) []byte { return appendApply(dst, e.Name, e.Args) }

func (e *Binary) appendTo(dst []byte) []byte {
	dst = append(dst, '(')
	dst = e.X.appendTo(dst)
	dst = append(dst, ' ')
	dst = append(dst, e.Op.String()...)
	dst = append(dst, ' ')
	dst = e.Y.appendTo(dst)
	return append(dst, ')')
}

func (e *Unary) appendTo(dst []byte) []byte {
	dst = append(dst, e.Op...)
	return e.X.appendTo(dst)
}

func (d DistSpec) appendTo(dst []byte) []byte {
	if d.Kind == DistBlockCyclic {
		dst = append(dst, "CYCLIC("...)
		dst = strconv.AppendInt(dst, int64(d.BlockSize), 10)
		return append(dst, ')')
	}
	return append(dst, d.Kind.String()...)
}
