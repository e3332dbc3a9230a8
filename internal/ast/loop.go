package ast

// Norm is a DO loop's normal form, i = lo + Step·t for t in [0, Trip):
// every pass that asks how a loop steps asks Do.Norm.
type Norm struct {
	Step int // a non-zero constant; 0: not known
	// Low and High are the ordered ends, swapped for a loop counting
	// down, so every index value lies in [Low, High]; nil for Step 0.
	Low, High Expr
	// With constant bounds (Const) every index value lies in [Min, Max]:
	// exactly the least and greatest for a known step (a strided loop
	// ends on its last iteration; no iteration: Min > Max), else the
	// bounds in order.
	Const    bool
	Min, Max int
	Trip     int // the iteration count; -1: not a constant
}

// Norm reads d under env, the PARAMETER constants (nil: literals only).
// It allocates nothing.
func (d *Do) Norm(env Env) Norm {
	n := Norm{Step: 1, Trip: -1}
	if s, ok := EvalInt(d.Step, env); d.Step != nil {
		n.Step = s
		if !ok {
			n.Step = 0
		}
	}
	switch {
	case n.Step > 0:
		n.Low, n.High = d.Lo, d.Hi
	case n.Step < 0:
		n.Low, n.High = d.Hi, d.Lo
	}
	lo, okLo := EvalInt(d.Lo, env)
	hi, okHi := EvalInt(d.Hi, env)
	switch n.Const = okLo && okHi; {
	case !n.Const:
	case n.Step == 0:
		n.Min, n.Max = min(lo, hi), max(lo, hi)
	default:
		n.Trip = Trip(lo, hi, n.Step)
		n.Min, n.Max = lo, lo+(n.Trip-1)*n.Step
		if n.Step < 0 {
			n.Min, n.Max = n.Max, n.Min
		}
	}
	return n
}

// Trip is F77's iteration count of do i = lo, hi, s: max(0, (hi − lo + s)/s).
func Trip(lo, hi, s int) int {
	if t := (hi - lo + s) / s; t > 0 {
		return t
	}
	return 0
}

// Exit is the value F77 leaves in the index after all trip iterations.
func Exit(lo, trip, s int) int { return lo + trip*s }

// Returns reports whether d's body holds a RETURN.
func (d *Do) Returns() bool { return returns(d.Body) }

func returns(body []Stmt) bool {
	for _, s := range body {
		switch st := s.(type) {
		case *Return:
			return true
		case *Do:
			if returns(st.Body) {
				return true
			}
		case *If:
			if returns(st.Then) || returns(st.Else) {
				return true
			}
		}
	}
	return false
}
