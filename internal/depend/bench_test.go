package depend

import (
	"fmt"
	"strings"
	"testing"

	"fortd/internal/parser"
)

// BenchmarkDependAnalyze analyzes one subroutine of the benchmark's
// compile_synth256 program: eight sweep loops, 24 references to one
// array, 156 tested pairs.
func BenchmarkDependAnalyze(b *testing.B) {
	var src strings.Builder
	src.WriteString("      SUBROUTINE s(x)\n      REAL x(32)\n")
	for l := 0; l < 8; l++ {
		sh := 1 + l%3
		fmt.Fprintf(&src, "      do i = %d, %d\n        x(i) = 0.5 * x(i-%d) + 0.25 * x(i+%d) + %d.0\n      enddo\n",
			sh+1, 32-sh, sh, sh, l)
	}
	src.WriteString("      END\n")
	u, err := parser.ParseProcedure(src.String())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if info := Analyze(u, nil); len(info) != 24 {
			b.Fatalf("%d refs", len(info))
		}
	}
}
