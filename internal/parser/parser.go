// Package parser builds the AST for the Fortran 77 / Fortran D subset.
// It is a line-oriented recursive-descent parser: each statement occupies
// one line (as in the paper's figures), declarations precede executable
// statements, and keywords are case-insensitive. A program unit is the
// unit of parsing: the text is cut after every lone END line and each
// unit is lexed and parsed on its own, so a Memo (the summary cache) can
// hand back the units whose text did not change.
package parser

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"fortd/internal/ast"
	"fortd/internal/lexer"
)

// Parse parses a complete Fortran D program.
func Parse(src string) (*ast.Program, error) { return ParseMemo(src, nil) }

// A Chunk is the text of one program unit, its lines from the one after
// the previous unit's END through its own END, and the first one's number.
type Chunk struct {
	First int
	Text  string
}

// A Memo keeps parsed units by chunk. ParseMemo asks it for each chunk
// before parsing that and hands it every unit it parses; a unit is
// shared from then on and never written.
type Memo interface {
	Unit(Chunk) *ast.Procedure
	KeepUnit(Chunk, *ast.Procedure)
}

// ParseMemo is Parse with a memo of units (nil: none). A program unit is
// the unit of parsing: the text is cut after each lone END line
// (lexer.IsEnd), and a chunk the memo does not hold is lexed from its
// first line, so tokens carry the text's line numbers, and parsed alone.
func ParseMemo(src string, memo Memo) (*ast.Program, error) {
	var units []*ast.Procedure
	var toks []lexer.Token
	rest, more := src, true
	for c := (Chunk{First: 1}); more; c.First += strings.Count(c.Text, "\n") + 1 {
		c.Text, rest, more = cut(rest)
		if memo != nil {
			if u := memo.Unit(c); u != nil {
				units = append(units, u)
				continue
			}
		}
		var err error
		if toks, err = lexer.TokenizeAt(toks, c.Text, c.First); err != nil {
			return nil, err
		}
		if p := (parser{toks: toks}); !p.at(lexer.EOF) { // else blank and comment lines after the last END
			u, err := p.parseUnit()
			if err != nil {
				return nil, err
			}
			if memo != nil {
				memo.KeepUnit(c, u)
			}
			units = append(units, u)
		}
	}
	return program(units)
}

// cut splits src after its first lone END line, or returns all of it.
func cut(src string) (chunk, rest string, more bool) {
	for at := 0; ; {
		i := strings.IndexByte(src[at:], '\n')
		if i < 0 {
			return src, "", false
		}
		end := at + i
		if lexer.IsEnd(src[at:end]) {
			return src[:end], src[end+1:], true
		}
		at = end + 1
	}
}

// program assembles the parsed units into a program.
func program(units []*ast.Procedure) (*ast.Program, error) {
	if len(units) == 0 {
		return nil, fmt.Errorf("parser: empty program")
	}
	// program-unit names must be unique: every later pass indexes
	// procedures by name, so a collision would silently merge units
	seen := map[string]bool{}
	for _, u := range units {
		if seen[u.Name] {
			return nil, fmt.Errorf("parser: duplicate program unit name %s", u.Name)
		}
		seen[u.Name] = true
	}
	return ast.NewProgram(units), nil
}

// ParseProcedure parses a single program unit (used in tests).
func ParseProcedure(src string) (*ast.Procedure, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return prog.Units[0], nil
}

type parser struct {
	toks  []lexer.Token
	pos   int
	unit  *ast.Procedure
	whole bool // the expression is a CALL's actual: an array may be named whole
	body  bool // the unit has an executable statement, so a type declaration is too late
}

func (p *parser) at(k lexer.Kind) bool { return p.toks[p.pos].Kind == k }

func (p *parser) peek() lexer.Token { return p.toks[p.pos] }

func (p *parser) next() lexer.Token {
	t := p.toks[p.pos]
	if t.Kind != lexer.EOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k lexer.Kind, what string) (lexer.Token, error) {
	t := p.next()
	if t.Kind != k {
		return t, fmt.Errorf("line %d: expected %s, found %q", t.Line, what, t.Text)
	}
	return t, nil
}

// atKeyword reports whether the current token is the given keyword
// (case-insensitive identifier match).
func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == lexer.IDENT && strings.EqualFold(t.Text, kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) skipNewlines() {
	for p.at(lexer.NEWLINE) {
		p.pos++
	}
}

func (p *parser) endOfStmt() error {
	if p.at(lexer.EOF) {
		return nil
	}
	t := p.next()
	if t.Kind != lexer.NEWLINE {
		return fmt.Errorf("line %d: unexpected %q at end of statement", t.Line, t.Text)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Units

func (p *parser) parseUnit() (*ast.Procedure, error) {
	p.skipNewlines()
	line := p.peek().Line
	u := &ast.Procedure{Symbols: ast.NewSymbolTable()}
	switch {
	case p.acceptKeyword("PROGRAM"):
		t, err := p.expect(lexer.IDENT, "program name")
		if err != nil {
			return nil, err
		}
		u.Name = t.Text
		u.IsMain = true
	case p.acceptKeyword("SUBROUTINE"):
		t, err := p.expect(lexer.IDENT, "subroutine name")
		if err != nil {
			return nil, err
		}
		u.Name = t.Text
		if p.at(lexer.LPAREN) {
			p.next()
			for !p.at(lexer.RPAREN) {
				id, err := p.expect(lexer.IDENT, "parameter name")
				if err != nil {
					return nil, err
				}
				u.Params = append(u.Params, id.Text)
				if p.at(lexer.COMMA) {
					p.next()
				}
			}
			p.next() // RPAREN
		}
	default:
		return nil, fmt.Errorf("line %d: expected PROGRAM or SUBROUTINE, found %q", line, p.peek().Text)
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	for i, name := range u.Params {
		u.Symbols.Define(&ast.Symbol{
			Name: name, Kind: ast.SymScalar, Type: implicitType(name),
			IsFormal: true, FormalIndex: i, Line: line,
		})
	}
	p.unit, p.body = u, false
	body, err := p.parseStmts("END")
	if err != nil {
		return nil, err
	}
	u.Body = body
	// consume END
	if !p.acceptKeyword("END") {
		return nil, fmt.Errorf("line %d: expected END", p.peek().Line)
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	return u, nil
}

func implicitType(name string) ast.DataType {
	c := strings.ToLower(name)[0]
	if c >= 'i' && c <= 'n' {
		return ast.TypeInteger
	}
	return ast.TypeReal
}

// scalarUse records name, named without a subscript and not as a whole
// actual of a CALL, if it is the unit's first such array (acg.Build
// rejects the unit).
func (p *parser) scalarUse(name string, line int) {
	if s := p.unit.Symbols.Lookup(name); s.Kind == ast.SymArray && p.unit.ScalarUse == "" {
		p.unit.ScalarUse, p.unit.ScalarUseLine = name, line
	}
}

// defineImplicit ensures name has a symbol, creating an implicit scalar.
func (p *parser) defineImplicit(name string) *ast.Symbol {
	if s := p.unit.Symbols.Lookup(name); s != nil {
		return s
	}
	s := &ast.Symbol{Name: name, Kind: ast.SymScalar, Type: implicitType(name), FormalIndex: -1}
	p.unit.Symbols.Define(s)
	return s
}

// ---------------------------------------------------------------------------
// Statement lists

// parseStmts parses statements until one of the given terminating
// keywords is at the front (not consumed).
func (p *parser) parseStmts(terminators ...string) ([]ast.Stmt, error) {
	var out []ast.Stmt
	for {
		p.skipNewlines()
		if p.at(lexer.EOF) {
			return out, nil
		}
		for _, term := range terminators {
			if p.atTerminator(term) {
				return out, nil
			}
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		switch s.(type) {
		case nil:
			continue
		case *ast.Decomposition, *ast.Align, *ast.Distribute:
			// Fortran D directives may come before the declarations
		default:
			p.body = true
		}
		out = append(out, s)
	}
}

// atTerminator matches "END", "ENDDO", "END DO", "ENDIF", "END IF", "ELSE".
func (p *parser) atTerminator(term string) bool {
	t := p.peek()
	if t.Kind != lexer.IDENT {
		return false
	}
	up := strings.ToUpper(t.Text)
	switch term {
	case "END":
		if up != "END" {
			return false
		}
		// plain END only: next token must be NEWLINE/EOF
		nt := p.toks[p.pos+1]
		return nt.Kind == lexer.NEWLINE || nt.Kind == lexer.EOF
	case "ENDDO":
		if up == "ENDDO" {
			return true
		}
		if up == "END" {
			nt := p.toks[p.pos+1]
			return nt.Kind == lexer.IDENT && strings.EqualFold(nt.Text, "DO")
		}
	case "ENDIF":
		if up == "ENDIF" {
			return true
		}
		if up == "END" {
			nt := p.toks[p.pos+1]
			return nt.Kind == lexer.IDENT && strings.EqualFold(nt.Text, "IF")
		}
	case "ELSE":
		return up == "ELSE"
	}
	return false
}

func (p *parser) consumeTerminator(term string) {
	t := p.next() // END / ENDDO / ENDIF / ELSE
	up := strings.ToUpper(t.Text)
	if up == "END" && (term == "ENDDO" || term == "ENDIF") {
		p.next() // DO / IF
	}
}

// ---------------------------------------------------------------------------
// Statements

func (p *parser) parseStmt() (ast.Stmt, error) {
	// drop a figure-style statement label: "S1 <stmt>"
	if t := p.peek(); t.Kind == lexer.IDENT && isLabel(t.Text) {
		nt := p.toks[p.pos+1]
		if nt.Kind != lexer.EQUALS && nt.Kind != lexer.LPAREN &&
			nt.Kind != lexer.NEWLINE && nt.Kind != lexer.COMMA {
			p.pos++
		}
	}
	t := p.peek()
	if t.Kind != lexer.IDENT {
		return nil, fmt.Errorf("line %d: unexpected %q at start of statement", t.Line, t.Text)
	}
	switch strings.ToUpper(t.Text) {
	case "REAL", "INTEGER", "LOGICAL", "DOUBLE":
		if p.body {
			// F77 declares before it executes: a name used as a scalar
			// must not turn into an array
			return nil, fmt.Errorf("line %d: type declaration after the unit's first statement", t.Line)
		}
		return nil, p.parseTypeDecl()
	case "PARAMETER":
		return nil, p.parseParameter()
	case "COMMON":
		return nil, p.parseCommon()
	case "DECOMPOSITION":
		return p.parseDecomposition()
	case "ALIGN":
		return p.parseAlign()
	case "DISTRIBUTE":
		return p.parseDistribute()
	case "DO":
		return p.parseDo()
	case "IF":
		return p.parseIf()
	case "CALL":
		return p.parseCall()
	case "RETURN":
		p.next()
		s := &ast.Return{}
		return s, p.endOfStmt()
	case "CONTINUE":
		p.next()
		return nil, p.endOfStmt()
	// output-language statements, accepted so generated SPMD programs
	// round-trip through the printer
	case "REMAP", "MARKAS":
		return p.parseRemap(strings.ToUpper(t.Text) == "MARKAS")
	case "GLOBALSUM", "GLOBALMAX", "GLOBALMIN":
		op := map[string]string{"GLOBALSUM": "+", "GLOBALMAX": "MAX", "GLOBALMIN": "MIN"}[strings.ToUpper(t.Text)]
		p.next()
		id, err := p.expect(lexer.IDENT, "reduction variable")
		if err != nil {
			return nil, err
		}
		st := &ast.GlobalReduce{Var: id.Text, Op: op}
		return st, p.endOfStmt()
	}
	if op, ok := ast.MsgOpOf(t.Text); ok {
		return p.parseMessage(op)
	}
	return p.parseAssign()
}

func isLabel(s string) bool {
	if len(s) < 2 || (s[0] != 'S' && s[0] != 's') {
		return false
	}
	for _, c := range s[1:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

func (p *parser) parseTypeDecl() error {
	t := p.next()
	var typ ast.DataType
	switch strings.ToUpper(t.Text) {
	case "REAL":
		typ = ast.TypeReal
	case "INTEGER":
		typ = ast.TypeInteger
	case "LOGICAL":
		typ = ast.TypeLogical
	case "DOUBLE":
		if !p.acceptKeyword("PRECISION") {
			return fmt.Errorf("line %d: expected PRECISION after DOUBLE", t.Line)
		}
		typ = ast.TypeDouble
	}
	for {
		id, err := p.expect(lexer.IDENT, "variable name")
		if err != nil {
			return err
		}
		sym := &ast.Symbol{Name: id.Text, Kind: ast.SymScalar, Type: typ, FormalIndex: -1, Line: id.Line}
		if prev := p.unit.Symbols.Lookup(id.Text); prev != nil {
			sym.IsFormal, sym.FormalIndex, sym.Common = prev.IsFormal, prev.FormalIndex, prev.Common
		}
		if p.at(lexer.LPAREN) {
			dims, err := p.parseExtents()
			if err != nil {
				return err
			}
			sym.Kind = ast.SymArray
			sym.Dims = dims
		}
		p.unit.Symbols.Define(sym)
		if !p.at(lexer.COMMA) {
			break
		}
		p.next()
	}
	return p.endOfStmt()
}

func (p *parser) parseExtents() ([]ast.Extent, error) {
	if _, err := p.expect(lexer.LPAREN, "("); err != nil {
		return nil, err
	}
	var dims []ast.Extent
	for {
		lo := ast.Expr(ast.Int(1))
		hi, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.at(lexer.COLON) {
			p.next()
			lo = hi
			hi, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		dims = append(dims, ast.Extent{Lo: lo, Hi: hi})
		if p.at(lexer.COMMA) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(lexer.RPAREN, ")"); err != nil {
		return nil, err
	}
	return dims, nil
}

func (p *parser) parseParameter() error {
	p.next() // PARAMETER
	if _, err := p.expect(lexer.LPAREN, "("); err != nil {
		return err
	}
	for {
		id, err := p.expect(lexer.IDENT, "constant name")
		if err != nil {
			return err
		}
		if _, err := p.expect(lexer.EQUALS, "="); err != nil {
			return err
		}
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		v, ok := ast.EvalInt(e, p.unit.Constants())
		if !ok {
			return fmt.Errorf("line %d: PARAMETER value for %s is not constant", id.Line, id.Text)
		}
		p.unit.Symbols.Define(&ast.Symbol{
			Name: id.Text, Kind: ast.SymConstant, Type: ast.TypeInteger,
			FormalIndex: -1, ConstValue: v,
		})
		if p.at(lexer.COMMA) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(lexer.RPAREN, ")"); err != nil {
		return err
	}
	return p.endOfStmt()
}

func (p *parser) parseCommon() error {
	line := p.next().Line // COMMON
	block := "blank"
	if p.at(lexer.SLASH) {
		p.next()
		id, err := p.expect(lexer.IDENT, "common block name")
		if err != nil {
			return err
		}
		block = id.Text
		if _, err := p.expect(lexer.SLASH, "/"); err != nil {
			return err
		}
	}
	u := p.unit
	at := slices.IndexFunc(u.Commons, func(c ast.Common) bool { return c.Block == block })
	if at < 0 {
		at = len(u.Commons)
		u.Commons = append(u.Commons, ast.Common{Block: block, Line: line})
	}
	for {
		id, err := p.expect(lexer.IDENT, "variable name")
		if err != nil {
			return err
		}
		sym := p.defineImplicit(id.Text)
		sym.Common = block
		u.Commons[at].Members = append(u.Commons[at].Members, id.Text)
		if p.at(lexer.LPAREN) {
			dims, err := p.parseExtents()
			if err != nil {
				return err
			}
			sym.Kind, sym.Dims, sym.Line = ast.SymArray, dims, id.Line
		}
		if !p.at(lexer.COMMA) {
			break
		}
		p.next()
	}
	return p.endOfStmt()
}

// ---------------------------------------------------------------------------
// Fortran D directives

func (p *parser) parseDecomposition() (ast.Stmt, error) {
	line := p.next().Line // DECOMPOSITION
	id, err := p.expect(lexer.IDENT, "decomposition name")
	if err != nil {
		return nil, err
	}
	dims, err := p.parseExtents()
	if err != nil {
		return nil, err
	}
	sym := &ast.Symbol{Name: id.Text, Kind: ast.SymDecomposition, FormalIndex: -1, Dims: dims}
	p.unit.Symbols.Define(sym)
	sizes, ok := sym.Extents(p.unit.Constants())
	if !ok {
		return nil, fmt.Errorf("line %d: decomposition %s requires constant bounds", line, id.Text)
	}
	st := &ast.Decomposition{Name: id.Text, Dims: sizes}
	st.Position = ast.Position{Line: line}
	return st, p.endOfStmt()
}

// parseAlign handles "ALIGN X(i,j) with D(j,i)" and "ALIGN X with D".
func (p *parser) parseAlign() (ast.Stmt, error) {
	line := p.next().Line // ALIGN
	arr, err := p.expect(lexer.IDENT, "array name")
	if err != nil {
		return nil, err
	}
	var srcVars []string
	if p.at(lexer.LPAREN) {
		p.next()
		for !p.at(lexer.RPAREN) {
			id, err := p.expect(lexer.IDENT, "align index")
			if err != nil {
				return nil, err
			}
			srcVars = append(srcVars, id.Text)
			if p.at(lexer.COMMA) {
				p.next()
			}
		}
		p.next()
	}
	if !p.acceptKeyword("WITH") {
		return nil, fmt.Errorf("line %d: expected WITH in ALIGN", line)
	}
	target, err := p.expect(lexer.IDENT, "decomposition name")
	if err != nil {
		return nil, err
	}
	var terms []ast.AlignTerm
	if p.at(lexer.LPAREN) {
		p.next()
		for !p.at(lexer.RPAREN) {
			term, err := p.parseAlignTerm(srcVars)
			if err != nil {
				return nil, err
			}
			terms = append(terms, term)
			if p.at(lexer.COMMA) {
				p.next()
			}
		}
		p.next()
	} else {
		// identity alignment; rank determined later from declarations
		sym := p.unit.Symbols.Lookup(arr.Text)
		rank := 1
		if sym != nil && sym.Kind == ast.SymArray {
			rank = sym.NumDims()
		}
		for d := 0; d < rank; d++ {
			terms = append(terms, ast.AlignTerm{ArrayDim: d})
		}
	}
	st := &ast.Align{Array: arr.Text, Target: target.Text, Terms: terms}
	st.Position = ast.Position{Line: line}
	return st, p.endOfStmt()
}

// parseAlignTerm parses one decomposition-dimension slot: an index
// variable from srcVars possibly +/- a constant offset, or "*"/":" for
// an unmapped dimension.
func (p *parser) parseAlignTerm(srcVars []string) (ast.AlignTerm, error) {
	t := p.next()
	if t.Kind == lexer.STAR || t.Kind == lexer.COLON {
		return ast.AlignTerm{ArrayDim: -1}, nil
	}
	if t.Kind != lexer.IDENT {
		return ast.AlignTerm{}, fmt.Errorf("line %d: bad ALIGN term %q", t.Line, t.Text)
	}
	dim := -1
	for i, v := range srcVars {
		if strings.EqualFold(v, t.Text) {
			dim = i
			break
		}
	}
	if dim < 0 {
		return ast.AlignTerm{}, fmt.Errorf("line %d: ALIGN term %q is not an align index", t.Line, t.Text)
	}
	off := 0
	if p.at(lexer.PLUS) || p.at(lexer.MINUS) {
		neg := p.next().Kind == lexer.MINUS
		n, err := p.expect(lexer.INT, "align offset")
		if err != nil {
			return ast.AlignTerm{}, err
		}
		off = n.Int
		if neg {
			off = -off
		}
	}
	return ast.AlignTerm{ArrayDim: dim, Offset: off}, nil
}

func (p *parser) parseDistribute() (ast.Stmt, error) {
	p.next() // DISTRIBUTE
	id, err := p.expect(lexer.IDENT, "distribute target")
	if err != nil {
		return nil, err
	}
	specs, err := p.parseDistSpecs("distribution")
	if err != nil {
		return nil, err
	}
	st := &ast.Distribute{Target: id.Text, Specs: specs}
	st.Position = ast.Position{Line: id.Line}
	return st, p.endOfStmt()
}

// ---------------------------------------------------------------------------
// Executable statements

func (p *parser) parseDo() (ast.Stmt, error) {
	line := p.next().Line // DO
	v, err := p.expect(lexer.IDENT, "loop variable")
	if err != nil {
		return nil, err
	}
	p.defineImplicit(v.Text)
	p.scalarUse(v.Text, v.Line)
	if _, err := p.expect(lexer.EQUALS, "="); err != nil {
		return nil, err
	}
	lo, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.COMMA, ","); err != nil {
		return nil, err
	}
	hi, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	var step ast.Expr
	if p.at(lexer.COMMA) {
		p.next()
		step, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	body, err := p.parseStmts("ENDDO", "END")
	if err != nil {
		return nil, err
	}
	if !p.atTerminator("ENDDO") {
		return nil, fmt.Errorf("line %d: DO loop not terminated by ENDDO", line)
	}
	p.consumeTerminator("ENDDO")
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	st := &ast.Do{Var: v.Text, Lo: lo, Hi: hi, Step: step, Body: body}
	st.Position = ast.Position{Line: line}
	return st, nil
}

func (p *parser) parseIf() (ast.Stmt, error) {
	line := p.next().Line // IF
	if _, err := p.expect(lexer.LPAREN, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.RPAREN, ")"); err != nil {
		return nil, err
	}
	st := &ast.If{Cond: cond}
	st.Position = ast.Position{Line: line}
	if p.acceptKeyword("THEN") {
		if err := p.endOfStmt(); err != nil {
			return nil, err
		}
		st.Then, err = p.parseStmts("ELSE", "ENDIF", "END")
		if err != nil {
			return nil, err
		}
		if p.atTerminator("ELSE") {
			p.consumeTerminator("ELSE")
			if err := p.endOfStmt(); err != nil {
				return nil, err
			}
			st.Else, err = p.parseStmts("ENDIF", "END")
			if err != nil {
				return nil, err
			}
		}
		if !p.atTerminator("ENDIF") {
			return nil, fmt.Errorf("line %d: IF block not terminated by ENDIF", line)
		}
		p.consumeTerminator("ENDIF")
		return st, p.endOfStmt()
	}
	// logical IF: a single statement on the same line
	inner, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if inner != nil {
		st.Then = []ast.Stmt{inner}
	}
	return st, nil
}

func (p *parser) parseCall() (ast.Stmt, error) {
	p.next() // CALL
	id, err := p.expect(lexer.IDENT, "subroutine name")
	if err != nil {
		return nil, err
	}
	st := &ast.Call{Name: id.Text}
	st.Position = ast.Position{Line: id.Line}
	if p.at(lexer.LPAREN) {
		p.next()
		for !p.at(lexer.RPAREN) {
			p.whole = p.at(lexer.IDENT) && (p.toks[p.pos+1].Kind == lexer.COMMA || p.toks[p.pos+1].Kind == lexer.RPAREN)
			a, err := p.parseExpr()
			p.whole = false
			if err != nil {
				return nil, err
			}
			st.Args = append(st.Args, a)
			if p.at(lexer.COMMA) {
				p.next()
			}
		}
		p.next()
	}
	return st, p.endOfStmt()
}

func (p *parser) parseAssign() (ast.Stmt, error) {
	lhs, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	switch lhs.(type) {
	case *ast.Ident, *ast.ArrayRef:
	case *ast.FuncCall:
		// an undeclared array used on the lhs parses as FuncCall; convert
		fc := lhs.(*ast.FuncCall)
		lhs = &ast.ArrayRef{Name: fc.Name, Subs: fc.Args}
	default:
		return nil, fmt.Errorf("line %d: invalid assignment target", p.peek().Line)
	}
	if _, err := p.expect(lexer.EQUALS, "="); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	st := &ast.Assign{Lhs: lhs, Rhs: rhs}
	st.Position = ast.Position{Line: p.peek().Line}
	return st, p.endOfStmt()
}

// parseMessage parses the message statement op, its shape read off
// op's kind:
//
//	send      ARR(sec,...) to EXPR
//	recv      ARR(sec,...) from EXPR
//	broadcast ARR(sec,...) from EXPR [to ARR(:,...,sec,...,:) [ring]]
//	allgather ARR(sec,...)
//	postrecv  ARR(sec,...) from EXPR tag N
//	waitrecv  ARR tag N
//	postbcast ARR(sec,...) from EXPR [to ARR(...) [ring]] tag N
//	waitbcast ARR tag N
//
// where each section dimension is "expr" or "expr:expr".
func (p *parser) parseMessage(op ast.MsgOp) (ast.Stmt, error) {
	k := op.Kind()
	p.next() // keyword
	arr, err := p.expect(lexer.IDENT, "array name")
	if err != nil {
		return nil, err
	}
	m := &ast.Message{Op: op, Array: arr.Text}
	m.Position = ast.Position{Line: arr.Line}
	if k.Sec {
		if m.Sec, err = p.parseSection(false); err != nil {
			return nil, err
		}
	}
	if k.Peer != "" {
		if !p.acceptKeyword(k.Peer) {
			return nil, fmt.Errorf("line %d: expected %s", arr.Line, strings.ToUpper(k.Peer))
		}
		if m.Peer, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if k.To {
		if m.To, err = p.parseReceivers(arr.Line); err != nil {
			return nil, err
		}
	}
	if k.Tag {
		if m.Tag, err = p.parseTag(arr.Line); err != nil {
			return nil, err
		}
	}
	return m, p.endOfStmt()
}

func (p *parser) parseTag(line int) (int32, error) {
	if !p.acceptKeyword("TAG") {
		return 0, fmt.Errorf("line %d: expected TAG", line)
	}
	t, err := p.expect(lexer.INT, "tag number")
	if err != nil {
		return 0, err
	}
	if t.Int > math.MaxInt32 {
		return 0, fmt.Errorf("line %d: tag %d out of range", line, t.Int)
	}
	return int32(t.Int), nil
}

// parseReceivers parses a broadcast's optional "to" clause: an array
// section bounded in one dimension and ":" in every other, then "ring"
// if the broadcast travels along a ring.
func (p *parser) parseReceivers(line int) (*ast.Receivers, error) {
	if !p.acceptKeyword("TO") {
		return nil, nil
	}
	arr, err := p.expect(lexer.IDENT, "array name")
	if err != nil {
		return nil, err
	}
	sec, err := p.parseSection(true)
	if err != nil {
		return nil, err
	}
	r, n := &ast.Receivers{Array: arr.Text, Rank: len(sec)}, 0
	for d, s := range sec {
		if s.Lo != nil {
			r.Dim, r.Lo, r.Hi, n = d, s.Lo, s.Hi, n+1
		}
	}
	if n != 1 {
		return nil, fmt.Errorf("line %d: a to clause bounds one dimension", line)
	}
	r.Ring = p.acceptKeyword("RING")
	return r, nil
}

// parseSection parses "(sec,...)"; whole admits ":" for a whole
// dimension, with nil bounds.
func (p *parser) parseSection(whole bool) ([]ast.SecDim, error) {
	if _, err := p.expect(lexer.LPAREN, "("); err != nil {
		return nil, err
	}
	var sec []ast.SecDim
	for !p.at(lexer.RPAREN) {
		if whole && p.at(lexer.COLON) {
			p.next()
			sec = append(sec, ast.SecDim{})
			if p.at(lexer.COMMA) {
				p.next()
			}
			continue
		}
		lo, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		hi := ast.CloneExpr(lo)
		if p.at(lexer.COLON) {
			p.next()
			hi, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		sec = append(sec, ast.SecDim{Lo: lo, Hi: hi})
		if p.at(lexer.COMMA) {
			p.next()
		}
	}
	p.next() // RPAREN
	return sec, nil
}

// parseDistSpecs parses "(SPEC,...)", each SPEC ":", BLOCK, CYCLIC or
// CYCLIC(k), for a DISTRIBUTE or a remap (what names which).
func (p *parser) parseDistSpecs(what string) ([]ast.DistSpec, error) {
	if _, err := p.expect(lexer.LPAREN, "("); err != nil {
		return nil, err
	}
	var specs []ast.DistSpec
	for !p.at(lexer.RPAREN) {
		t := p.next()
		switch {
		case t.Kind == lexer.COLON:
			specs = append(specs, ast.DistSpec{Kind: ast.DistNone})
		case t.Kind == lexer.IDENT && strings.EqualFold(t.Text, "BLOCK"):
			specs = append(specs, ast.DistSpec{Kind: ast.DistBlock})
		case t.Kind == lexer.IDENT && strings.EqualFold(t.Text, "CYCLIC"):
			sp := ast.DistSpec{Kind: ast.DistCyclic}
			if p.at(lexer.LPAREN) {
				p.next()
				n, err := p.expect(lexer.INT, "block size")
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(lexer.RPAREN, ")"); err != nil {
					return nil, err
				}
				if n.Int > 1 {
					sp = ast.DistSpec{Kind: ast.DistBlockCyclic, BlockSize: n.Int}
				}
			}
			specs = append(specs, sp)
		default:
			return nil, fmt.Errorf("line %d: bad %s format %q", t.Line, what, t.Text)
		}
		if p.at(lexer.COMMA) {
			p.next()
		}
	}
	p.next() // RPAREN
	return specs, nil
}

// parseRemap parses "remap ARR(SPEC,...)" / "markas ARR(SPEC,...)".
func (p *parser) parseRemap(inPlace bool) (ast.Stmt, error) {
	p.next() // keyword
	arr, err := p.expect(lexer.IDENT, "array name")
	if err != nil {
		return nil, err
	}
	specs, err := p.parseDistSpecs("remap")
	if err != nil {
		return nil, err
	}
	st := &ast.Remap{Array: arr.Text, To: specs, InPlace: inPlace}
	return st, p.endOfStmt()
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *parser) parseExpr() (ast.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (ast.Expr, error) {
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.at(lexer.RELOP) && p.peek().Text == "OR" {
		p.next()
		y, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		x = &ast.Binary{Op: ast.OpOr, X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseAnd() (ast.Expr, error) {
	x, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.at(lexer.RELOP) && p.peek().Text == "AND" {
		p.next()
		y, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		x = &ast.Binary{Op: ast.OpAnd, X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseNot() (ast.Expr, error) {
	if p.at(lexer.RELOP) && p.peek().Text == "NOT" {
		p.next()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: ".NOT.", X: x}, nil
	}
	return p.parseRel()
}

var relOps = map[string]ast.BinOp{
	"EQ": ast.OpEQ, "NE": ast.OpNE, "LT": ast.OpLT,
	"LE": ast.OpLE, "GT": ast.OpGT, "GE": ast.OpGE,
}

func (p *parser) parseRel() (ast.Expr, error) {
	x, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.at(lexer.RELOP) {
		if op, ok := relOps[p.peek().Text]; ok {
			p.next()
			y, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &ast.Binary{Op: op, X: x, Y: y}, nil
		}
	}
	return x, nil
}

func (p *parser) parseAdd() (ast.Expr, error) {
	x, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.at(lexer.PLUS) || p.at(lexer.MINUS) {
		op := ast.OpAdd
		if p.next().Kind == lexer.MINUS {
			op = ast.OpSub
		}
		y, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		x = &ast.Binary{Op: op, X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseMul() (ast.Expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(lexer.STAR) || p.at(lexer.SLASH) {
		op := ast.OpMul
		if p.next().Kind == lexer.SLASH {
			op = ast.OpDiv
		}
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		x = &ast.Binary{Op: op, X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseUnary() (ast.Expr, error) {
	if p.at(lexer.MINUS) {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: "-", X: x}, nil
	}
	if p.at(lexer.PLUS) {
		p.next()
		return p.parseUnary()
	}
	return p.parsePow()
}

func (p *parser) parsePow() (ast.Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.at(lexer.POW) {
		p.next()
		y, err := p.parseUnary() // right-associative
		if err != nil {
			return nil, err
		}
		return &ast.Binary{Op: ast.OpPow, X: x, Y: y}, nil
	}
	return x, nil
}

func (p *parser) parsePrimary() (ast.Expr, error) {
	t := p.next()
	switch t.Kind {
	case lexer.INT:
		return &ast.IntLit{Value: t.Int}, nil
	case lexer.REAL:
		return &ast.RealLit{Value: t.Value}, nil
	case lexer.LPAREN:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.RPAREN, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case lexer.IDENT:
		name := t.Text
		if !p.at(lexer.LPAREN) {
			p.defineImplicit(name)
			if !p.whole {
				p.scalarUse(name, t.Line)
			}
			return &ast.Ident{Name: name}, nil
		}
		p.next() // LPAREN
		var args []ast.Expr
		for !p.at(lexer.RPAREN) {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.at(lexer.COMMA) {
				p.next()
			}
		}
		p.next() // RPAREN
		if sym := p.unit.Symbols.Lookup(name); sym != nil && sym.Kind == ast.SymArray {
			return &ast.ArrayRef{Name: name, Subs: args}, nil
		}
		return &ast.FuncCall{Name: name, Args: args}, nil
	}
	return nil, fmt.Errorf("line %d: unexpected %q in expression", t.Line, t.Text)
}
