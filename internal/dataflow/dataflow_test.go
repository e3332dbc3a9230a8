package dataflow

import (
	"testing"
	"testing/quick"

	"fortd/internal/ast"
	"fortd/internal/cfg"
	"fortd/internal/parser"
)

func TestSetOps(t *testing.T) {
	a := NewSet("x", "y")
	b := NewSet("y", "z")
	if !a.Has("x") || a.Has("z") {
		t.Error("membership")
	}
	c := a.Clone()
	if !c.Equal(a) {
		t.Error("clone not equal")
	}
	changed := c.Union(b)
	if !changed || len(c) != 3 {
		t.Errorf("union = %v", c.Members())
	}
	if c.Union(b) {
		t.Error("second union must not change")
	}
	d := a.Minus(b)
	if !d.Equal(NewSet("x")) {
		t.Errorf("minus = %v", d.Members())
	}
}

func TestSetUnionProperty(t *testing.T) {
	f := func(xs, ys []string) bool {
		a := NewSet(xs...)
		b := NewSet(ys...)
		u := a.Clone()
		u.Union(b)
		for m := range a {
			if !u.Has(m) {
				return false
			}
		}
		for m := range b {
			if !u.Has(m) {
				return false
			}
		}
		for m := range u {
			if !a.Has(m) && !b.Has(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBackwardLiveness(t *testing.T) {
	u, err := parser.ParseProcedure(`
      PROGRAM P
      a = 1
      b = a + 2
      c = 5
      d = b
      END
`)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Build(u)
	res := Solve(g, LiveScalars{}, Backward, NewSet())
	// at entry nothing is live-in beyond uses: a is defined before use
	in := res.In[g.Entry.ID]
	if in.Has("a") || in.Has("b") {
		t.Errorf("entry live-in = %v", in.Members())
	}
	// after "a = 1", a is live (used by b = a + 2)
	var aNode *cfg.Node
	for _, n := range g.Nodes {
		if st, ok := n.Stmt.(*ast.Assign); ok {
			if id, ok := st.Lhs.(*ast.Ident); ok && id.Name == "a" {
				aNode = n
			}
		}
	}
	if !res.Out[aNode.ID].Has("a") {
		t.Errorf("a not live after its definition: %v", res.Out[aNode.ID].Members())
	}
	// c is dead everywhere (never used)
	for _, n := range g.Nodes {
		if res.In[n.ID].Has("c") {
			t.Errorf("c live at node %d", n.ID)
		}
	}
}

func TestLivenessThroughLoop(t *testing.T) {
	u, err := parser.ParseProcedure(`
      PROGRAM P
      s = 0
      do i = 1,10
        s = s + i
      enddo
      t = s
      END
`)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Build(u)
	res := Solve(g, LiveScalars{}, Backward, NewSet())
	// s is live around the loop back edge
	var head *cfg.Node
	for _, n := range g.Nodes {
		if n.Kind == cfg.KindLoopHead {
			head = n
		}
	}
	if !res.In[head.ID].Has("s") {
		t.Errorf("s not live at loop head: %v", res.In[head.ID].Members())
	}
}

// reachingDefs exercises the forward direction: each assignment to a
// scalar generates its own ID and kills other defs of the same name.
type reachingDefs struct {
	defs map[*cfg.Node]string // node → def id
	byVr map[string]Set       // var → all def ids
}

func newReachingDefs(g *cfg.Graph) *reachingDefs {
	rd := &reachingDefs{defs: map[*cfg.Node]string{}, byVr: map[string]Set{}}
	for _, n := range g.Nodes {
		if st, ok := n.Stmt.(*ast.Assign); ok {
			if id, ok := st.Lhs.(*ast.Ident); ok {
				d := id.Name + "@" + itoa(n.ID)
				rd.defs[n] = d
				if rd.byVr[id.Name] == nil {
					rd.byVr[id.Name] = NewSet()
				}
				rd.byVr[id.Name][d] = struct{}{}
			}
		}
	}
	return rd
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func (rd *reachingDefs) Gen(n *cfg.Node) Set {
	if d, ok := rd.defs[n]; ok {
		return NewSet(d)
	}
	return NewSet()
}

func (rd *reachingDefs) Kill(n *cfg.Node) Set {
	if st, ok := n.Stmt.(*ast.Assign); ok {
		if id, ok := st.Lhs.(*ast.Ident); ok {
			all := rd.byVr[id.Name].Clone()
			delete(all, rd.defs[n])
			return all
		}
	}
	return NewSet()
}

func TestForwardReachingDefs(t *testing.T) {
	u, err := parser.ParseProcedure(`
      PROGRAM P
      x = 1
      if (c .gt. 0) then
        x = 2
      endif
      y = x
      END
`)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Build(u)
	rd := newReachingDefs(g)
	res := Solve(g, rd, Forward, NewSet())
	// at "y = x" both defs of x reach
	var yNode *cfg.Node
	for _, n := range g.Nodes {
		if st, ok := n.Stmt.(*ast.Assign); ok {
			if id, ok := st.Lhs.(*ast.Ident); ok && id.Name == "y" {
				yNode = n
			}
		}
	}
	count := 0
	for d := range res.In[yNode.ID] {
		if d[0] == 'x' {
			count++
		}
	}
	if count != 2 {
		t.Errorf("defs of x reaching y = %d, want 2 (%v)", count, res.In[yNode.ID].Members())
	}
}
