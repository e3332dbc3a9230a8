package spmd

import (
	"context"
	"errors"
	"strings"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/machine"
)

// TestUnknownReduceOpError: a GlobalReduce whose op the interpreter
// does not implement fails loudly with the structured error, instead
// of silently reducing as a sum the way earlier versions did. The
// parser only produces "+", "MAX" and "MIN", so the broken op is
// planted in the AST directly — the error exists to catch compiler
// bugs, not user syntax.
func TestUnknownReduceOpError(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      s = 1.0
      globalsum s
      END
`)
	var red *ast.GlobalReduce
	for _, st := range prog.Units[0].Body {
		if r, ok := st.(*ast.GlobalReduce); ok {
			red = r
		}
	}
	if red == nil {
		t.Fatal("no GlobalReduce in parsed body")
	}
	red.Op = "XOR"
	_, err := Lower(prog, 4, nil, nil, nil).Run(context.Background(), machine.DefaultConfig(4), Options{})
	if err == nil {
		t.Fatal("unknown reduce op must fail the run")
	}
	var ue *UnknownReduceOpError
	if !errors.As(err, &ue) {
		t.Fatalf("error %T (%v) does not unwrap to *UnknownReduceOpError", err, err)
	}
	if ue.Var != "s" || ue.Op != "XOR" {
		t.Errorf("error fields = {Var:%q Op:%q}, want {s XOR}", ue.Var, ue.Op)
	}
	if msg := ue.Error(); !strings.Contains(msg, "XOR") || !strings.Contains(msg, "s") {
		t.Errorf("message %q does not name the op and variable", msg)
	}

	// P=1 takes the no-communication early return, but the op check
	// must still fire: a bad op is a bug at every processor count.
	if _, err := Lower(prog, 1, nil, nil, nil).Run(context.Background(), machine.DefaultConfig(1), Options{}); err == nil {
		t.Error("unknown reduce op must fail at P=1 too")
	}
}
