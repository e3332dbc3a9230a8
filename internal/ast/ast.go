// Package ast defines the abstract syntax tree for the Fortran 77 /
// Fortran D subset accepted by the compiler, plus the extended output
// statements (send, recv, remap) that appear in generated SPMD node
// programs. The same tree type is used on both sides of compilation,
// mirroring the source-to-source structure of the original Fortran D
// compiler built on ParaScope.
package ast

import (
	"fmt"
	"strconv"
)

// DataType is the declared type of a variable.
type DataType int

const (
	TypeReal DataType = iota
	TypeInteger
	TypeDouble
	TypeLogical
)

func (t DataType) String() string {
	switch t {
	case TypeReal:
		return "REAL"
	case TypeInteger:
		return "INTEGER"
	case TypeDouble:
		return "DOUBLE PRECISION"
	case TypeLogical:
		return "LOGICAL"
	}
	return "UNKNOWN"
}

// DistKind is the distribution format of one decomposition dimension.
type DistKind int

const (
	DistNone DistKind = iota // ":" — dimension is not distributed
	DistBlock
	DistCyclic
	DistBlockCyclic
)

func (k DistKind) String() string {
	switch k {
	case DistNone:
		return ":"
	case DistBlock:
		return "BLOCK"
	case DistCyclic:
		return "CYCLIC"
	case DistBlockCyclic:
		return "BLOCK_CYCLIC"
	}
	return "?"
}

// DistSpec describes the distribution of a single dimension.
type DistSpec struct {
	Kind      DistKind
	BlockSize int // for DistBlockCyclic
}

func (d DistSpec) String() string {
	if d.Kind == DistBlockCyclic {
		return string(d.appendTo(nil))
	}
	return d.Kind.String()
}

// Equal reports whether two specs print alike: the block size counts
// only for CYCLIC(k).
func (d DistSpec) Equal(o DistSpec) bool {
	return d.Kind == o.Kind && (d.Kind != DistBlockCyclic || d.BlockSize == o.BlockSize)
}

// Position locates a construct in the source text.
type Position struct {
	Line int
}

func (p Position) String() string { return fmt.Sprintf("line %d", p.Line) }

// ---------------------------------------------------------------------------
// Expressions

// Expr is the interface implemented by all expression nodes.
type Expr interface {
	exprNode()
	String() string
	// appendTo appends what String returns (print.go).
	appendTo(dst []byte) []byte
}

// Ident is a reference to a scalar variable or loop index.
type Ident struct {
	Name string
}

// IntLit is an integer literal.
type IntLit struct {
	Value int
}

// RealLit is a floating-point literal.
type RealLit struct {
	Value float64
}

// ArrayRef is a subscripted reference to a declared array.
type ArrayRef struct {
	Name string
	Subs []Expr
}

// FuncCall is a reference to an intrinsic or external function.
type FuncCall struct {
	Name string
	Args []Expr
}

// BinOp enumerates binary operators.
type BinOp int

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpPow
	OpEQ
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
	OpAnd
	OpOr
)

var binOpNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpPow: "**",
	OpEQ: ".EQ.", OpNE: ".NE.", OpLT: ".LT.", OpLE: ".LE.",
	OpGT: ".GT.", OpGE: ".GE.", OpAnd: ".AND.", OpOr: ".OR.",
}

func (op BinOp) String() string {
	if op < 0 || int(op) >= len(binOpNames) {
		return ""
	}
	return binOpNames[op]
}

// Binary is a binary expression X op Y.
type Binary struct {
	Op   BinOp
	X, Y Expr
}

// Unary is a unary expression: negation or .NOT.
type Unary struct {
	Op string // "-" or ".NOT."
	X  Expr
}

func (*Ident) exprNode()    {}
func (*IntLit) exprNode()   {}
func (*RealLit) exprNode()  {}
func (*ArrayRef) exprNode() {}
func (*FuncCall) exprNode() {}
func (*Binary) exprNode()   {}
func (*Unary) exprNode()    {}

func (e *Ident) String() string    { return e.Name }
func (e *IntLit) String() string   { return strconv.Itoa(e.Value) }
func (e *RealLit) String() string  { return string(e.appendTo(nil)) }
func (e *ArrayRef) String() string { return string(e.appendTo(nil)) }
func (e *FuncCall) String() string { return string(e.appendTo(nil)) }
func (e *Binary) String() string   { return string(e.appendTo(nil)) }
func (e *Unary) String() string    { return string(e.appendTo(nil)) }

// ---------------------------------------------------------------------------
// Statements

// Stmt is the interface implemented by all statement nodes.
type Stmt interface {
	stmtNode()
	Pos() Position
}

type stmtBase struct {
	Position Position
}

func (s stmtBase) Pos() Position { return s.Position }

// Assign is an assignment statement. Lhs is *Ident or *ArrayRef.
type Assign struct {
	stmtBase
	Lhs Expr
	Rhs Expr
}

// Do is a DO loop with unit or explicit step.
type Do struct {
	stmtBase
	Var  string
	Lo   Expr
	Hi   Expr
	Step Expr // nil means 1
	Body []Stmt
}

// If is a block IF statement.
type If struct {
	stmtBase
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// Call invokes a subroutine.
type Call struct {
	stmtBase
	Name string
	Args []Expr
}

// Return exits the enclosing procedure.
type Return struct {
	stmtBase
}

// Decomposition declares an abstract index domain (Fortran D).
type Decomposition struct {
	stmtBase
	Name string
	Dims []int
}

// AlignTerm describes how one array dimension maps onto a decomposition
// dimension: array dimension ArrayDim (0-based) maps to the decomposition
// dimension in whose slot this term appears, displaced by Offset.
// ArrayDim < 0 means the decomposition dimension is unmapped (collapsed).
type AlignTerm struct {
	ArrayDim int
	Offset   int
}

// Align maps an array onto a decomposition (Fortran D). Terms has one
// entry per decomposition dimension.
type Align struct {
	stmtBase
	Array  string
	Target string
	Terms  []AlignTerm
}

// Distribute assigns distribution formats to a decomposition's dimensions
// (Fortran D). Target may also name an array directly, which distributes
// its implicit default decomposition.
type Distribute struct {
	stmtBase
	Target string
	Specs  []DistSpec
}

// ---------------------------------------------------------------------------
// Output-language statements (appear only in generated SPMD programs)

// SecDim is one dimension of an array section in the output language,
// with expression bounds so that bounds may involve my$p etc.
type SecDim struct {
	Lo, Hi Expr
}

// Send transmits the section of Array to processor Dest.
type Send struct {
	stmtBase
	Array string
	Sec   []SecDim
	Dest  Expr
}

// Recv receives the section of Array from processor Src.
type Recv struct {
	stmtBase
	Array string
	Sec   []SecDim
	Src   Expr
}

// Broadcast sends the section of Array from processor Root to the
// processors To names (nil: all others).
type Broadcast struct {
	stmtBase
	Array string
	Sec   []SecDim
	Root  Expr
	To    *Receivers
}

// Receivers is a broadcast's "to" clause: the owners of the section
// Array(:,..,Lo:Hi,..,:) of rank Rank, bounded in dimension Dim only.
// Ring ("... ring") sends along a ring, the next root first, instead of
// the binomial tree.
type Receivers struct {
	Array     string
	Dim, Rank int
	Lo, Hi    Expr
	Ring      bool
}

// Subst copies the clause, substituting env into its bounds.
func (r *Receivers) Subst(env map[string]Expr) *Receivers {
	if r == nil {
		return nil
	}
	c := *r
	c.Lo, c.Hi = Subst(r.Lo, env), Subst(r.Hi, env)
	return &c
}

// AllGather makes the section of Array, distributed across processors,
// fully replicated on every processor (each owner contributes its part).
type AllGather struct {
	stmtBase
	Array string
	Sec   []SecDim
}

// GlobalReduce combines every processor's private copy of a scalar with
// the given operation and leaves the result on all processors (the
// combining step of a recognized reduction).
type GlobalReduce struct {
	stmtBase
	Var string
	Op  string // "+", "MAX", "MIN"
}

// PostRecv posts a nonblocking receive of the section of Array from
// processor Src (the post half of a blocking Recv split by the overlap
// schedule pass). Tag pairs it with the WaitRecv that completes it;
// tags are unique program-wide so posts and waits match across
// procedure boundaries.
type PostRecv struct {
	stmtBase
	Array string
	Sec   []SecDim
	Src   Expr
	Tag   int
}

// WaitRecv completes the PostRecv with the same Tag, blocking until
// the message arrives and storing it into Array's section. A WaitRecv
// whose post was skipped (its guard was false) is a no-op.
type WaitRecv struct {
	stmtBase
	Array string
	Tag   int
}

// PostBcast posts the send half of a split-phase broadcast of the
// section of Array from processor Root to the processors To names: the
// root's tree sends happen here, every other processor only records
// what to wait for.
type PostBcast struct {
	stmtBase
	Array string
	Sec   []SecDim
	Root  Expr
	To    *Receivers
	Tag   int
}

// WaitBcast completes the PostBcast with the same Tag, blocking until
// the broadcast payload arrives and storing it into Array's section.
type WaitBcast struct {
	stmtBase
	Array string
	Tag   int
}

// Remap invokes the data-remapping library routine, physically moving
// Array between two distributions. InPlace marks the array-kill
// optimization (§6.3): only the descriptor is updated, no data moves.
type Remap struct {
	stmtBase
	Array   string
	From    []DistSpec
	To      []DistSpec
	InPlace bool
}

func (*Assign) stmtNode()        {}
func (*Do) stmtNode()            {}
func (*If) stmtNode()            {}
func (*Call) stmtNode()          {}
func (*Return) stmtNode()        {}
func (*Decomposition) stmtNode() {}
func (*Align) stmtNode()         {}
func (*Distribute) stmtNode()    {}
func (*Send) stmtNode()          {}
func (*Recv) stmtNode()          {}
func (*Broadcast) stmtNode()     {}
func (*AllGather) stmtNode()     {}
func (*GlobalReduce) stmtNode()  {}
func (*PostRecv) stmtNode()      {}
func (*WaitRecv) stmtNode()      {}
func (*PostBcast) stmtNode()     {}
func (*WaitBcast) stmtNode()     {}
func (*Remap) stmtNode()         {}

// ---------------------------------------------------------------------------
// Declarations, procedures, programs

// Extent is one declared dimension of an array, lo:hi. Lo defaults to 1.
type Extent struct {
	Lo, Hi Expr
}

// SymKind classifies a symbol.
type SymKind int

const (
	SymScalar SymKind = iota
	SymArray
	SymDecomposition
	SymConstant // PARAMETER constant
)

// Symbol is one entry in a procedure's symbol table.
type Symbol struct {
	Name        string
	Kind        SymKind
	Type        DataType
	Dims        []Extent // arrays and decompositions
	IsFormal    bool
	FormalIndex int    // position in the parameter list, -1 otherwise
	Common      string // common block name, "" if local
	ConstValue  int    // value for SymConstant
	Line        int    // where it was declared (0: implicitly, by use)
}

// NumDims reports the declared rank.
func (s *Symbol) NumDims() int { return len(s.Dims) }

// Extents returns the extent, hi − lo + 1, of each declared dimension
// under env, and whether every bound is a constant; if one is not, the
// extents before that dimension.
func (s *Symbol) Extents(env Env) ([]int, bool) {
	out := make([]int, 0, len(s.Dims))
	for _, d := range s.Dims {
		lo, okLo := EvalInt(d.Lo, env)
		hi, okHi := EvalInt(d.Hi, env)
		if !okLo || !okHi {
			return out, false
		}
		out = append(out, hi-lo+1)
	}
	return out, true
}

// SymbolTable maps names to symbols, preserving declaration order.
type SymbolTable struct {
	Order []string
	table map[string]*Symbol
}

// NewSymbolTable returns an empty symbol table.
func NewSymbolTable() *SymbolTable {
	return &SymbolTable{table: make(map[string]*Symbol)}
}

// Define inserts sym, replacing any prior definition of the same name.
func (t *SymbolTable) Define(sym *Symbol) {
	if _, ok := t.table[sym.Name]; !ok {
		t.Order = append(t.Order, sym.Name)
	}
	t.table[sym.Name] = sym
}

// Lookup returns the symbol for name, or nil.
func (t *SymbolTable) Lookup(name string) *Symbol { return t.table[name] }

// Symbols returns all symbols in declaration order.
func (t *SymbolTable) Symbols() []*Symbol {
	out := make([]*Symbol, 0, len(t.Order))
	for _, n := range t.Order {
		out = append(out, t.table[n])
	}
	return out
}

// Procedure is a PROGRAM or SUBROUTINE unit.
type Procedure struct {
	Name    string
	IsMain  bool
	Params  []string
	Symbols *SymbolTable
	Body    []Stmt
	Commons []Common // the unit's COMMON blocks, members in storage order
	// ScalarUse is the first array the unit names without a subscript
	// other than as a whole actual of a CALL, at line ScalarUseLine.
	ScalarUse     string
	ScalarUseLine int
}

// Common is one COMMON block of a unit and the line that first names it.
type Common struct {
	Block   string
	Members []string
	Line    int
}

// Constants returns the procedure's PARAMETER constants.
func (p *Procedure) Constants() MapEnv {
	env := MapEnv{}
	for _, s := range p.Symbols.Symbols() {
		if s.Kind == SymConstant {
			env[s.Name] = s.ConstValue
		}
	}
	return env
}

// Formal returns the symbol of the i-th formal parameter.
func (p *Procedure) Formal(i int) *Symbol {
	if i < 0 || i >= len(p.Params) {
		return nil
	}
	return p.Symbols.Lookup(p.Params[i])
}

// Program is a whole Fortran D program: a main program plus subroutines.
type Program struct {
	Units []*Procedure
	procs map[string]*Procedure
}

// NewProgram assembles a program from its units and indexes them by name.
func NewProgram(units []*Procedure) *Program {
	p := &Program{Units: units, procs: make(map[string]*Procedure, len(units))}
	for _, u := range units {
		p.procs[u.Name] = u
	}
	return p
}

// Proc returns the unit named name, or nil.
func (p *Program) Proc(name string) *Procedure { return p.procs[name] }

// Main returns the main program unit, or nil.
func (p *Program) Main() *Procedure {
	for _, u := range p.Units {
		if u.IsMain {
			return u
		}
	}
	return nil
}

// AddProc registers a new unit (used by procedure cloning).
func (p *Program) AddProc(u *Procedure) {
	p.Units = append(p.Units, u)
	p.procs[u.Name] = u
}

// ReplaceProc swaps the unit of the same name for u, keeping the name
// index consistent (used by passes that copy a unit rather than write
// it). It is a no-op if no unit has u's name.
func (p *Program) ReplaceProc(u *Procedure) {
	for i, old := range p.Units {
		if old.Name == u.Name {
			p.Units[i] = u
			p.procs[u.Name] = u
			return
		}
	}
}
