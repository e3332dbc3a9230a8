GO ?= go

.PHONY: check test race loc loc-pkgs bench bench-exec bench-compile bench-run bench-compare golden overlap fuzz report serve load

check: ## build + vet + race tests + fuzz smoke + trace-overhead guard
	./ci.sh

test:
	$(GO) test ./...

race: ## tests under the race detector (the parallel compile lane)
	$(GO) test -race ./...

loc: ## non-blank lines of non-test Go outside bench/ (ROADMAP item 6 tracks it; ci.sh holds it to a ceiling)
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs grep -v '^\s*$$' | wc -l

loc-pkgs: ## make loc's total, then its figure per package directory, largest first
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs grep -cvH '^\s*$$' | \
		awk -F: '{ d = $$1; sub(/\/[^\/]*$$/, "", d); n[d] += $$2; t += $$2 } END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k1,1nr -k2

bench: ## the root package's go benchmarks (the repository benchmark is bench-run / bench-compare)
	$(GO) test -run '^$$' -bench . -benchtime 10x .

bench-exec: ## executor microbenchmarks: expression, loop nest, CALL, reduction, jacobi's stencil in strips, broadcast, a P=64 run of ring broadcasts with a "to" clause that leaves most processors outside, and dgefa_p1024's broadcasts alone, where 896 of the 1 024 processors hold no column (ns/op and allocs/op)
	$(GO) test -run '^$$' -bench 'BenchmarkExec' -benchmem ./internal/spmd

BENCHTIME ?= 1s
bench-compile: ## compiler microbenchmarks, one per layer, then the whole compile, a resubmit on a warm cache, a service's one-constant edit compile with its listing and that edit's compile and first run (ns/op, B/op, allocs/op)
	$(GO) test -run '^$$' -bench 'BenchmarkLex$$|BenchmarkDependAnalyze$$|BenchmarkLivedecompMain256$$|BenchmarkAggregateAnchors$$|BenchmarkSchedApply$$|BenchmarkCompileSynth256$$|BenchmarkCompileWarmCache$$|BenchmarkServiceEditCompile$$|BenchmarkServiceEditRun$$' \
		-benchmem -benchtime $(BENCHTIME) ./internal/lexer ./internal/depend ./internal/livedecomp ./internal/codegen .

W ?= dgefa_p1024
O ?= .bench_build/$(W).json
bench-run: ## one workload of the repository benchmark (bench/README.md): make bench-run W=dgefa_p1024 [O=parent.json]
	bash bench/run.sh -workload $(W) -o $(O)

bench-compare: ## two result files side by side: make bench-compare A=parent.json B=change.json
	bash bench/run.sh -compare $(A) $(B)

golden: ## regenerate the trace-summary, analysis, optimization-report and metrics goldens
	$(GO) test -run TestGolden -update . ./internal/metrics

overlap: ## profile jacobi with the blocking vs overlap schedule and diff the artifacts
	$(GO) build -o /tmp/fdprof_overlap ./cmd/fdprof
	$(GO) run ./cmd/fdrun -overlap=false -check=false -profile /tmp/overlap_off.json testdata/jacobi2d.f
	$(GO) run ./cmd/fdrun -overlap -check=false -profile /tmp/overlap_on.json testdata/jacobi2d.f
	/tmp/fdprof_overlap diff /tmp/overlap_off.json /tmp/overlap_on.json
	rm -f /tmp/fdprof_overlap /tmp/overlap_off.json /tmp/overlap_on.json

report: ## render the dgefa HTML performance report to report.html
	$(GO) run ./cmd/fdrun -report report.html testdata/dgefa.f

FUZZTIME ?= 30s
fuzz: ## fuzz the parser, the whole compile pipeline (seeds: testdata, testdata/pipeline), compile+run (every program that compiles against the sequential reference; seeds: testdata, testdata/pipeline, testdata/known, testdata/private, testdata/sections, progen programs with scalar temporaries), hand-written node programs run under a deadline (seeds: testdata/pipeline/chain_hand.spmd, testdata/deadlock.f, testdata/spmd), the affine form, lexer and codegen's DO-index liveness walk against their oracles, the schedule pass against the blocking program, and the sequential reference run against a Fortran 77 interpreter (seeds: testdata)
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/parser
	$(GO) test -run '^$$' -fuzz FuzzCompile -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzRun -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzSPMDText -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzAffine -fuzztime $(FUZZTIME) ./internal/depend
	$(GO) test -run '^$$' -fuzz FuzzTokenize -fuzztime $(FUZZTIME) ./internal/lexer
	$(GO) test -run '^$$' -fuzz FuzzLiveIndices -fuzztime $(FUZZTIME) ./internal/codegen
	$(GO) test -run '^$$' -fuzz FuzzSchedEquivalence -fuzztime $(FUZZTIME) ./internal/sched
	$(GO) test -run '^$$' -fuzz FuzzReference -fuzztime $(FUZZTIME) ./internal/f77ref

FDD_ADDR ?= localhost:8700
FDD_CACHE ?= .fddcache
PPROF ?= 0
serve: ## run the compile daemon with a disk-persisted summary cache (PPROF=1 mounts /debug/pprof)
	$(GO) run ./cmd/fdd -addr $(FDD_ADDR) -cache-dir $(FDD_CACHE) $(if $(filter 1,$(PPROF)),-pprof)

load: ## the daemon's contracts under concurrent sessions (determinism, §8 cones, 429/503, /metrics identities), in process
	$(GO) test -run TestDaemonLoad -count=1 -v ./cmd/fdd
