// Command quickstart compiles and runs the paper's Figure 1 program —
// the smallest Fortran D example that needs interprocedural analysis:
// the main program declares X block-distributed, and subroutine F1
// computes on it without any local decomposition information. The
// paper's experiments are rerun by cmd/fdpaper.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"fortd"
)

func main() {
	src := fortd.Fig1Src(100, 4)
	prog, err := fortd.Compile(src, fortd.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Generated SPMD node program ===")
	fmt.Println(prog.Listing())

	// seed X with a ramp and execute on the simulated 4-processor
	// distributed-memory machine
	x0 := fortd.Ramp(100)
	res, err := fortd.NewRunner(fortd.WithInit(map[string][]float64{"X": x0})).Run(prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Simulated execution ===")
	fmt.Printf("processors: %d\n", prog.P())
	fmt.Printf("stats:      %s\n", res.Stats)
	fmt.Printf("X(1:5):     %v\n", res.Arrays["X"][:5])

	// verify against the sequential reference
	ref, err := fortd.NewRunner(fortd.WithInit(map[string][]float64{"X": x0})).RunReference(prog)
	if err != nil {
		log.Fatal(err)
	}
	same := true
	for i := range ref.Arrays["X"] {
		if res.Arrays["X"][i] != ref.Arrays["X"][i] {
			same = false
			break
		}
	}
	fmt.Printf("matches sequential reference: %v\n", same)

	// contrast with run-time resolution (Figure 3)
	opts := fortd.DefaultOptions()
	opts.Strategy = fortd.RuntimeResolution
	slow, err := fortd.Compile(src, opts)
	if err != nil {
		log.Fatal(err)
	}
	sres, err := fortd.NewRunner(fortd.WithInit(map[string][]float64{"X": x0})).Run(slow)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== Run-time resolution baseline (Figure 3) ===")
	fmt.Printf("stats:      %s\n", sres.Stats)
	fmt.Printf("slowdown:   %.1fx, %dx more messages\n",
		sres.Stats.Time/res.Stats.Time, sres.Stats.Messages/res.Stats.Messages)
}
