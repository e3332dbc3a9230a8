package main

import (
	"fmt"
	"math/rand"
	"strings"

	"fortd"
)

// sizes fixes every workload's problem size. The full sizes are the
// benchmark; the smoke sizes (P <= 4, n <= 32) only prove that every
// path runs and every metric is produced.
type sizes struct {
	dgefaN, dgefaP            int
	jacobiN, jacobiT, jacobiP int
	dynN, dynT, dynP          int
	synthSubs, svcSubs        int // synthetic programs: subroutine counts
	synthLoops, synthN        int // loops per subroutine, array length
	synthP                    int
	// svcChunk is how many sessions the two clients share between two
	// looks at the clock; every svcProfileEvery-th session profiles its run.
	svcChunk int
}

var fullSizes = sizes{
	dgefaN: 128, dgefaP: 1024,
	jacobiN: 256, jacobiT: 10, jacobiP: 16,
	dynN: 4096, dynT: 3, dynP: 256,
	synthSubs: 256, svcSubs: 32, synthLoops: 8, synthN: 32, synthP: 4,
	svcChunk: 20,
}

var smokeSizes = sizes{
	dgefaN: 16, dgefaP: 4,
	jacobiN: 16, jacobiT: 2, jacobiP: 4,
	dynN: 32, dynT: 1, dynP: 4,
	synthSubs: 4, svcSubs: 3, synthLoops: 2, synthN: 16, synthP: 4,
	svcChunk: 4,
}

const (
	svcClients      = 2
	svcProfileEvery = 4
)

// spec is one workload's generated input: what the program under test
// receives, and what a correct run must produce.
type spec struct {
	name string
	p    int
	src  string
	init map[string][]float64
	want map[string][]float64 // plain-Go oracle
	// editedSrc is src with one constant of one procedure changed; it is
	// compiled against a warm cache for the summarycache metrics.
	editedSrc string
	// handSrc is hand-written SPMD code for the same computation
	// (dgefa only; "" elsewhere).
	handSrc string
	// coldCompile: one compile is long enough to time alone
	// (compile_synth256); elsewhere compiles are timed in batches.
	coldCompile bool
	// synth is set for the synthetic-procedures programs.
	synth *synthProgram
}

// synthProgram describes a fortd.SyntheticProcsSrc program well enough
// to edit one constant in it and to predict its result.
type synthProgram struct {
	subs, loops, n int
	addends        [][]float64 // [sub][loop]
}

func newSynth(subs, loops, n int) *synthProgram {
	s := &synthProgram{subs: subs, loops: loops, n: n, addends: make([][]float64, subs)}
	for i := range s.addends {
		s.addends[i] = make([]float64, loops)
		for l := range s.addends[i] {
			s.addends[i][l] = float64(i + 1 + l) // SyntheticProcsSrc writes "+ (i+l).0", i 1-based
		}
	}
	return s
}

func (s *synthProgram) oracle(init map[string][]float64) map[string][]float64 {
	want := map[string][]float64{}
	for i := 0; i < s.subs; i++ {
		name := fmt.Sprintf("a%d", i+1)
		want[name] = synthOracle(init[name], s.addends[i])
	}
	return want
}

func (s *synthProgram) randomInit(rng *rand.Rand) map[string][]float64 {
	init := map[string][]float64{}
	for i := 0; i < s.subs; i++ {
		init[fmt.Sprintf("a%d", i+1)] = randomArray(rng, s.n, 0, 1)
	}
	return init
}

// editAddend rewrites the additive constant of loop l in subroutine
// sub (both 0-based) of a SyntheticProcsSrc text to v, touching that
// one line only, and returns the edited text and program description.
func (s *synthProgram) editAddend(src string, sub, l int, v float64) (string, *synthProgram) {
	head := fmt.Sprintf("      SUBROUTINE s%d(x)\n", sub+1)
	at := strings.Index(src, head)
	body := src[at:]
	body = body[:strings.Index(body, "      END\n")]
	old := fmt.Sprintf("+ %d.0\n", int(s.addends[sub][l]))
	// the l-th assignment of the subroutine (one per loop)
	pos := 0
	for k := 0; k <= l; k++ {
		pos += strings.Index(body[pos:], "x(i) = ") + 1
	}
	pos += strings.Index(body[pos:], old)
	edited := src[:at+pos] + fmt.Sprintf("+ %d.0\n", int(v)) + src[at+pos+len(old):]
	out := &synthProgram{subs: s.subs, loops: s.loops, n: s.n, addends: make([][]float64, s.subs)}
	copy(out.addends, s.addends)
	out.addends[sub] = append([]float64(nil), s.addends[sub]...)
	out.addends[sub][l] = v
	return edited, out
}

func randomArray(rng *rand.Rand, n int, lo, hi float64) []float64 {
	a := make([]float64, n)
	for i := range a {
		a[i] = lo + (hi-lo)*rng.Float64()
	}
	return a
}

// buildSpec generates one workload's inputs from the seed. The programs
// of the first four workloads are fixed by sz; the seed draws their
// data. svc_recompile's base program is fixed too; the seed draws its
// data here and its request stream in session().
func buildSpec(name string, sz sizes, seed int64) (*spec, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "dgefa_p1024":
		n := sz.dgefaN
		a := randomArray(rng, n*n, -0.5, 0.5)
		for i := 0; i < n; i++ {
			a[i*n+i] = float64(n) + 1 // diagonally dominant: pivot-free elimination is exact dgefa
		}
		src := fortd.DgefaSrc(n, sz.dgefaP)
		return &spec{
			name: name, p: sz.dgefaP, src: src,
			init:      map[string][]float64{"a": a},
			want:      map[string][]float64{"a": luOracle(a, n)},
			editedSrc: strings.Replace(src, "s = 0.0", "s = 0.5", 1), // idamax
			handSrc:   fortd.DgefaHandSrc(n, sz.dgefaP),
		}, nil
	case "jacobi2d_p16":
		n := sz.jacobiN
		a := randomArray(rng, n*n, 0, 100)
		wa, wb := jacobiOracle(a, n, sz.jacobiT)
		src := fortd.Jacobi2DSrc(n, sz.jacobiT, sz.jacobiP)
		return &spec{
			name: name, p: sz.jacobiP, src: src,
			init:      map[string][]float64{"a": a},
			want:      map[string][]float64{"a": wa, "b": wb},
			editedSrc: strings.Replace(src, "0.25 *", "0.5 *", 1), // the main program is the only procedure
		}, nil
	case "dyndist_p256":
		src := fortd.Fig15ScaledSrc(sz.dynN, sz.dynT, sz.dynP)
		return &spec{
			name: name, p: sz.dynP, src: src,
			init:      map[string][]float64{"X": randomArray(rng, sz.dynN, 0, 1)},
			want:      map[string][]float64{"X": onesOracle(sz.dynN)},
			editedSrc: strings.Replace(src, "X(i) = 1.0", "X(i) = 2.0", 1), // F2
		}, nil
	case "compile_synth256", "svc_recompile":
		subs := sz.synthSubs
		if name == "svc_recompile" {
			subs = sz.svcSubs
		}
		sp := newSynth(subs, sz.synthLoops, sz.synthN)
		src := fortd.SyntheticProcsSrc(subs, sz.synthLoops, sz.synthN, sz.synthP)
		init := sp.randomInit(rng)
		edited, _ := sp.editAddend(src, rng.Intn(subs), rng.Intn(sz.synthLoops), 999)
		return &spec{
			name: name, p: sz.synthP, src: src, init: init, want: sp.oracle(init),
			editedSrc:   edited,
			coldCompile: name == "compile_synth256", synth: sp,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// session is one request pair of the svc_recompile stream: compile this
// text, then run it.
type session struct {
	src     string
	edited  bool // false: the base text again
	profile bool // the run stores a profile artifact
	want    map[string][]float64
}

// session generates the i-th session of the stream, a function of the
// seed and i alone, so any prefix of the stream is reproducible however
// many sessions a run has time for. 75 % of sessions edit one constant
// in one subroutine of the base program (to a value no other session
// uses, so each edit is new to the cache); 25 % resubmit the base text.
func (s *spec) session(seed int64, i int) session {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	out := session{src: s.src, want: s.want, profile: i%svcProfileEvery == svcProfileEvery-1}
	if rng.Intn(4) == 0 {
		return out
	}
	src, prog := s.synth.editAddend(s.src, rng.Intn(s.synth.subs), rng.Intn(s.synth.loops), float64(1000+i))
	out.src, out.edited, out.want = src, true, prog.oracle(s.init)
	return out
}
