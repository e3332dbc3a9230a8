package livedecomp

import (
	"fmt"
	"strings"
	"testing"

	"fortd/internal/acg"
	"fortd/internal/decomp"
	"fortd/internal/parser"
)

// BenchmarkLivedecompMain256 runs the §6 analysis on the main program
// of the benchmark's compile_synth256 shape: 256 arrays, 256 calls, and
// not one executable redistribution ("static") — the forward problem
// has nothing to solve — and on the same program with every eighth
// callee redistributing its array ("dynamic"), where it does.
func BenchmarkLivedecompMain256(b *testing.B) {
	for _, lane := range []struct {
		name    string
		dynamic int
	}{{"static", 0}, {"dynamic", 8}} {
		b.Run(lane.name, func(b *testing.B) {
			var src strings.Builder
			src.WriteString("      PROGRAM MAIN\n      PARAMETER (n$proc = 4)\n")
			for i := 1; i <= 256; i++ {
				fmt.Fprintf(&src, "      REAL a%d(32)\n", i)
			}
			for i := 1; i <= 256; i++ {
				fmt.Fprintf(&src, "      DISTRIBUTE a%d(BLOCK)\n", i)
			}
			for i := 1; i <= 256; i++ {
				fmt.Fprintf(&src, "      call s%d(a%d)\n", i, i)
			}
			src.WriteString("      END\n")
			for i := 1; i <= 256; i++ {
				fmt.Fprintf(&src, "      SUBROUTINE s%d(x)\n      REAL x(32)\n", i)
				if lane.dynamic > 0 && i%lane.dynamic == 0 {
					src.WriteString("      DISTRIBUTE x(CYCLIC)\n")
				}
				src.WriteString("      do i = 2, 31\n        x(i) = x(i-1) + 1.0\n      enddo\n      END\n")
			}
			prog, err := parser.Parse(src.String())
			if err != nil {
				b.Fatal(err)
			}
			g, err := acg.Build(prog)
			if err != nil {
				b.Fatal(err)
			}
			summaries := map[string]*Summary{}
			block := decomp.NewDecomp(decomp.Block)
			var main *acg.Node
			for _, n := range g.ReverseTopoOrder() {
				if n.Proc.IsMain {
					main = n
					continue
				}
				_, sum := Analyze(n.Proc, n, map[string]decomp.Decomp{"x": block}, summaries, nil, OptKills, nil)
				summaries[n.Name()] = sum
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				place, _ := Analyze(main.Proc, main, nil, summaries, nil, OptKills, nil)
				if (place.Count() > 0) != (lane.dynamic > 0) {
					b.Fatalf("%d remaps placed", place.Count())
				}
			}
		})
	}
}
