package summarycache_test

import (
	"strings"
	"testing"

	"fortd"
	"fortd/internal/ast"
	"fortd/internal/core"
	"fortd/internal/spmd"
	"fortd/internal/summarycache"
)

// TestEditLowersOnlyItsUnit: a one-constant edit compiled through the
// cache that compiled and lowered the base program lowers only the
// edited unit, in its node program and its source program alike; the
// plan of each takes the other 32 units' code, pointer-equal, from the
// base program's lowering.
func TestEditLowersOnlyItsUnit(t *testing.T) {
	src := fortd.SyntheticProcsSrc(32, 8, 32, 4)
	edited := strings.Replace(src, "+ 9.0\n", "+ 1000.0\n", 1)
	opts := core.DefaultOptions()
	opts.Cache = summarycache.New()
	// lower returns the code each unit's plan took and the units it lowered
	lower := func(prog *ast.Program, p int) (map[string]*spmd.Code, []string) {
		codes, fresh, memo := map[string]*spmd.Code{}, []string(nil), opts.Cache.Codes()
		spmd.Lower(prog, p, nil, nil, func(u *ast.Procedure, nproc int, lw func() *spmd.Code) *spmd.Code {
			codes[u.Name] = memo(u, nproc, func() *spmd.Code {
				fresh = append(fresh, u.Name)
				return lw()
			})
			return codes[u.Name]
		})
		return codes, fresh
	}
	base, err := core.Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	next, err := core.Compile(edited, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range []struct {
		name       string
		base, next *ast.Program
		p          int
	}{{"node", base.Program, next.Program, base.P}, {"source", base.Source, next.Source, 1}} {
		was, fresh := lower(side.base, side.p)
		if len(was) != 33 || len(fresh) != 33 {
			t.Fatalf("%s: the base program's plan holds %d units and lowered %d, want 33 and 33", side.name, len(was), len(fresh))
		}
		now, fresh := lower(side.next, side.p)
		if len(fresh) != 1 || fresh[0] == "MAIN" || side.next.Proc(fresh[0]) == side.base.Proc(fresh[0]) {
			t.Fatalf("%s: the edit lowered %v, want the one edited subroutine", side.name, fresh)
		}
		shared := 0
		for name, code := range now {
			if code == was[name] {
				shared++
			}
		}
		if shared != 32 || now[fresh[0]] == was[fresh[0]] {
			t.Errorf("%s: the edit's plan shares the code of %d units, want the 32 it did not edit", side.name, shared)
		}
	}
	opts.Cache.Reset()
	if _, fresh := lower(next.Program, next.P); len(fresh) != 33 {
		t.Errorf("after Reset the edit's plan lowered %d units, want 33", len(fresh))
	}
}
