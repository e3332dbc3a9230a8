package progen

import (
	"math/rand"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/parser"
)

func gen(seed int64, temps bool) string {
	g := &Gen{Rng: rand.New(rand.NewSource(seed)), N: 24 + int(seed%3)*8, P: []int{3, 4, 6}[seed%3], Temps: temps}
	return g.Generate()
}

// TestSeedReproducesProgram: the compile digest records the programs of
// fixed seeds, so a seed must draw the same source every time.
func TestSeedReproducesProgram(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		for _, temps := range []bool{false, true} {
			if a, b := gen(seed, temps), gen(seed, temps); a != b {
				t.Errorf("seed %d (temps %v) drew two programs:\n%s\n---\n%s", seed, temps, a, b)
			}
		}
	}
	if gen(1, false) == gen(2, false) {
		t.Error("seeds 1 and 2 drew the same program")
	}
}

// TestProgramsParseAndRoundTrip: every generated program parses, and its
// print parses back to a program that prints the same.
func TestProgramsParseAndRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		for _, temps := range []bool{false, true} {
			src := gen(seed, temps)
			prog, err := parser.Parse(src)
			if err != nil {
				t.Fatalf("seed %d (temps %v): %v\n%s", seed, temps, err, src)
			}
			printed := ast.Print(prog)
			again, err := parser.Parse(printed)
			if err != nil {
				t.Fatalf("seed %d (temps %v): the print does not parse: %v\n%s", seed, temps, err, printed)
			}
			if reprinted := ast.Print(again); reprinted != printed {
				t.Errorf("seed %d (temps %v): the print does not round-trip:\n%s\n---\n%s", seed, temps, printed, reprinted)
			}
		}
	}
}
