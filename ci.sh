#!/bin/sh
# CI gate: build, vet, race-enabled tests (which exercise the parallel
# compile scheduler), a short fuzz smoke of the parser, the compile
# pipeline, the executor, the compiler's dense forms against their
# oracles, the schedule pass against the program it rewrote and the
# sequential run against Fortran 77, the benchmark's own tests and smoke
# run (its oracles check the executor's arrays and deterministic counts),
# the trace-overhead guard (the disabled-tracing fast path must stay
# cheap; compare the two sub-benchmarks by hand when touching the
# instrumentation) and, last, the size ratchet.
set -eux

test -z "$(gofmt -l .)"
# no tracked binary: go build ./cmd/... leaves fdc, fdd, fdrun, fdprof and
# fdpaper in the checkout (.gitignore lists them); a tracked file that
# starts with the ELF magic fails the gate
ELF=$(git ls-files -z | xargs -0 sh -c 'for f; do [ "$(head -c 4 "$f" 2>/dev/null | od -An -tx1 | tr -d " \n")" = 7f454c46 ] && echo "$f"; done; true' sh)
test -z "$ELF"
go build ./...
go vet ./...
# -timeout is the last-resort hang guard; the machine's own deadlock
# detection and deadline should fire long before it. internal/machine's
# tests run the channel oracle beside the engine, so this one lane is
# also the race check of the oracle and of the engine's coroutines
go test -race -timeout 5m ./...
go test -run '^$' -fuzz FuzzParse -fuzztime 10s ./internal/parser
go test -run '^$' -fuzz FuzzCompile -fuzztime 10s .
go test -run '^$' -fuzz FuzzRun -fuzztime 10s .
# hand-written node programs: no panic or hang, print → parse → print
go test -run '^$' -fuzz FuzzSPMDText -fuzztime 10s .
# the compiler's dense forms against the implementations they replaced:
# affine subscripts and the pair test on them, and the one-pass lexer
go test -run '^$' -fuzz FuzzAffine -fuzztime 10s ./internal/depend
go test -run '^$' -fuzz FuzzTokenize -fuzztime 10s ./internal/lexer
# codegen's DO-index liveness walk against the control-flow graph and
# iterative solver it replaced
go test -run '^$' -fuzz FuzzLiveIndices -fuzztime 10s ./internal/codegen
# the schedule pass against the blocking program it rewrote: generated
# SPMD programs run both ways must compute the same arrays (the recorded
# seeds are tier-1: TestSchedDigest, also under -short, and
# TestSchedMetamorphic)
go test -run '^$' -fuzz FuzzSchedEquivalence -fuzztime 10s ./internal/sched
# the executor's sequential run against a Fortran 77 interpreter that
# shares no lowering with it (seeds: testdata)
go test -run '^$' -fuzz FuzzReference -fuzztime 10s ./internal/f77ref
# the benchmark is its own module (bench/go.mod), so ./... above does not
# reach it: run its unit tests, then one smoke pass over all five
# workloads, which fails on a wrong array, a Stats difference between
# repeats or a machine replay that does not reproduce the traced run
(cd bench && go test ./...)
bash bench/run.sh -smoke
go test -run '^$' -bench BenchmarkTraceOverhead -benchtime 20x .
# the run distillation's benchmark must at least run (numbers: make
# bench; the allocation budget is a tier-1 test)
go test -run '^$' -bench BenchmarkDistill -benchtime 1x -benchmem .
# the compiler's per-layer microbenchmarks, and the service's edit
# compile and edit run (BenchmarkServiceEditRun), must at least run
# (numbers: make bench-compile; the allocation budgets are tier-1 tests)
make bench-compile BENCHTIME=1x
# the machine engine's benchmarks must at least run (numbers: make
# bench-machine; its allocation pins are tier-1 tests)
make bench-machine BENCHTIME=1x

# deadlock smoke: a deliberately mismatched SPMD program must terminate
# within the deadline with a non-zero exit and the structured deadlock
# report — never hang
if go run ./cmd/fdrun -spmd -deadline 10s testdata/deadlock.f >/tmp/ci_deadlock.out 2>&1; then
	echo "FAIL: mismatched SPMD program exited zero"
	cat /tmp/ci_deadlock.out
	exit 1
fi
grep -q "deadlock" /tmp/ci_deadlock.out
grep -q "MISMATCH" /tmp/ci_deadlock.out
rm -f /tmp/ci_deadlock.out

# report smoke: the self-contained HTML report must render and be
# non-trivial for the dgefa case study
go run ./cmd/fdrun -report /tmp/ci_report.html -sweep 1,2,4 testdata/dgefa.f
test -s /tmp/ci_report.html
grep -q 'id="heatmap"' /tmp/ci_report.html
grep -q '</html>' /tmp/ci_report.html
# at the case study's own scale (P=1024) the heatmap is a 64x64 grid of
# processor groups, so the page stays under 2 MB (a P x P heatmap wrote
# 158 MB in 27.6 s)
go run ./cmd/fdrun -p 1024 -check=false -sweep "" -report /tmp/ci_report.html testdata/dgefa.f
grep -q '</html>' /tmp/ci_report.html
test "$(wc -c </tmp/ci_report.html)" -lt 2097152
rm -f /tmp/ci_report.html

# profile smoke: two equal seeded runs must write byte-identical
# artifacts, and fdprof must rank, diff, merge and annotate them. The
# self-diff must be clean (exit 0); the regression exit path is pinned
# by TestDiffExitCodes
go build -o /tmp/ci_fdprof ./cmd/fdprof
go run ./cmd/fdrun -fault-seed 7 -fault-delay 0.2 -check=false \
	-profile /tmp/ci_prof_a.json testdata/jacobi2d.f
go run ./cmd/fdrun -fault-seed 7 -fault-delay 0.2 -check=false \
	-profile /tmp/ci_prof_b.json testdata/jacobi2d.f
diff /tmp/ci_prof_a.json /tmp/ci_prof_b.json
/tmp/ci_fdprof top -n 5 /tmp/ci_prof_a.json | grep -q 'JAC2'
/tmp/ci_fdprof diff /tmp/ci_prof_a.json /tmp/ci_prof_b.json
/tmp/ci_fdprof merge -o /tmp/ci_prof_m.json '/tmp/ci_prof_[ab].json'
grep -q '"runs": 2' /tmp/ci_prof_m.json
/tmp/ci_fdprof annotate /tmp/ci_prof_a.json testdata/jacobi2d.f | grep -q '!prof'
rm -f /tmp/ci_prof_a.json /tmp/ci_prof_b.json /tmp/ci_prof_m.json

# overlap smoke: the communication-overlap schedule must actually buy
# blocked time on the jacobi stencil. Profile one run with the blocking
# schedule and one with overlap, then gate on the profile diff: blocking
# -> overlap must be regression-free (exit 0), and the reversed diff
# must trip fdprof's regression exit — if it doesn't, overlap stopped
# paying and this gate is the alarm
go run ./cmd/fdrun -overlap=false -check=false \
	-profile /tmp/ci_prof_off.json testdata/jacobi2d.f
go run ./cmd/fdrun -overlap -check=false \
	-profile /tmp/ci_prof_on.json testdata/jacobi2d.f
/tmp/ci_fdprof diff /tmp/ci_prof_off.json /tmp/ci_prof_on.json
if /tmp/ci_fdprof diff /tmp/ci_prof_on.json /tmp/ci_prof_off.json; then
	echo "FAIL: blocking schedule profiles no worse than overlap; the overlap win is gone"
	exit 1
fi
rm -f /tmp/ci_fdprof /tmp/ci_prof_off.json /tmp/ci_prof_on.json

# daemon smoke: only what needs a real process — the built binary
# parses its flags, listens, answers /healthz and one /compile, and on
# SIGTERM drains and exits 0. Everything else this block used to assert
# over the socket (with a python client) is a cmd/fdd test on the same
# handler stack, run above under -race:
#   compile 200 with id and listing; listing byte-identical to the
#   library's, which is what fdc prints; run by id with stats.time > 0
#       TestDaemonCompileRunReport (+ cmd/fdc TestListingIsTheLibraryListing)
#   /run?profile=true returns a 64-hex profileId; /profile/{id} has
#   schema 1 and the program's hash; /profiles lists it
#       TestDaemonProfileRoundTrip
#   a session past its burst gets 429, kind rate-limit
#       TestDaemonRateLimit
#   that 429 carries Retry-After
#       TestDaemonRetryAfterAndRequestID, TestDaemonLoad (every 429)
#   /metrics after traffic: compiles ok, memory-tier cache hits, the
#   /compile POST 200 request count, fdd_compile_seconds_count
#       TestDaemonMetricsEndpoint
#   fdd_profiles_stored_total and fdd_run_blocked_share_count non-zero
#   (and equal)
#       TestDaemonLoad
#   /readyz ready while serving
#       TestDaemonReadyzDrain
FDD_PORT=$((20000 + $$ % 20000))
FDD_BIN=/tmp/ci_fdd.$$
go build -o "$FDD_BIN" ./cmd/fdd
"$FDD_BIN" -addr "localhost:$FDD_PORT" -rate 50 -burst 4 -drain 200ms >/tmp/ci_fdd.log 2>&1 &
FDD_PID=$!
trap 'kill $FDD_PID 2>/dev/null || true; rm -f "$FDD_BIN" /tmp/ci_fdd.log /tmp/ci_fdd_*' EXIT
for i in $(seq 1 50); do
	curl -sf "http://localhost:$FDD_PORT/healthz" >/dev/null 2>&1 && break
	sleep 0.1
done
curl -sf "http://localhost:$FDD_PORT/healthz" | grep -q '"ok":true'
curl -sf -H 'Content-Type: application/json' "http://localhost:$FDD_PORT/compile" -d '{
  "session": "ci",
  "source": "      PROGRAM P1\n      REAL X(64)\n      PARAMETER (n$proc = 4)\n      DISTRIBUTE X(BLOCK)\n      do i = 1,63\n        X(i) = X(i+1)\n      enddo\n      END\n"
}' >/tmp/ci_fdd_compile
grep -q '"listing":"[^"]*my\$p = myproc()' /tmp/ci_fdd_compile
kill -TERM $FDD_PID
wait $FDD_PID
grep -q '"msg":"stopped"' /tmp/ci_fdd.log
trap - EXIT
rm -f "$FDD_BIN" /tmp/ci_fdd.log /tmp/ci_fdd_*

# the tracked size of the production code (ROADMAP item 6) is a ratchet:
# it may not grow past the ceiling, and a PR that shrinks it lowers the
# ceiling to its own result in the same diff. It runs last, so a count
# over the ceiling fails the gate without hiding the steps above. PR 18
# added a compiler capability (private scalars partitioned by their
# uses, read-range sections) and was allowed its measured net growth,
# at most +400:
# 25208 -> 25608 (25598 before the review's three soundness fixes).
# PR 19 bought pipelined computations (a recurrence across BLOCK
# boundaries costs one message per boundary and keeps its loop's bounds
# reduced) and the post-loop value of a reduced loop's index, at most
# +250: 25608 -> 25856 (25855 measured). PR 20 retired the second
# benchmark harness, the second report command and the second §8
# predicate, nothing added: 25855 -> 25081. PR 21 (2026-10-04) bought an
# executor capability — each simulated processor stores its own share of
# an array, its overlap region and one buffer per communication site
# instead of a copy of everything (internal/spmd/storage.go) — plus three
# compiler fixes, and was allowed its measured net growth, at most +300,
# none of it moved into _test.go: 25081 -> 25381 (the statements'
# shared prologues and the two waits in spmd/comm.go paid for 86 of
# storage.go's lines). PR 22 (2026-10-04) bought a run-time-library
# capability — a remap is the all-to-all personalized exchange, every
# element sent once to its new owner and costed as its messages
# (spmd/comm.go exchange and deal, storage.go window.owner and
# Array.moves) — and was allowed its measured net growth, at most +60,
# none of it moved into _test.go: 25381 -> 25440 (git numstat: 140 lines
# added, 76 removed — the full exchange, its per-sender reject and the
# clamp in machine.CountRemap among them). PR 24 (2026-10-04) retired
# the load generator into cmd/fdd's tests, nothing added: 25440 -> 24836
# (cmd/fdload 601, Options.CacheDir and codegen.Input.Overlap 19; two
# bug fixes and fdc's sorted clone report gave 16 back). PR 25
# (2026-10-15) bought a global reduction as one recursive-doubling
# allreduce (machine.AllReduce replacing Reduce plus the broadcast back),
# coroutine switches and pooled ring buffers in the engine, and the
# 1(b)(x) fix (partition.Plan.DropDelays, which also replaced
# core.forceLocalPlan), and was allowed its measured net growth, at most
# +60, none of it moved into _test.go: 24836 -> 24869 (git numstat: 167
# lines added, 130 removed). The next change (2026-10-15) bought
# broadcast receivers — a "to" clause derived by codegen, parsed and
# printed, run by spmd as a modular range of owners and by machine as a
# binomial tree over the root and that range — plus the (BLOCK,BLOCK)
# remark, and was
# allowed its measured net growth, at most +150, none of it moved into
# _test.go: 24869 -> 25019 (git numstat: 379 lines added, 216 removed —
# decomp's unused global<->local conversions, machine's test-only
# ISend/IRecv/PostBcast/WaitBcast and livedecomp's Placement.Ops among
# them). The next change (2026-10-15) bought the ring broadcast — a
# "ring" shape on the "to" clause chosen by codegen for a rotating root,
# parsed and printed, run by machine along ringLinks — and two compiler
# fixes (a section widened over a scalar assigned after its placement, a
# formal DO index live at the callee's exit), and was allowed its
# measured net growth, at most +81, none of it moved into _test.go:
# 25019 -> 25091 (git numstat: 201 lines added, 127 removed —
# decomp.LocalSet, machine.Barrier and trace.NextSeq, which only tests
# called, among them). The next change (2026-10-15) deleted second
# copies, nothing added: the compile-time mirror of the executor's
# overlap buffers, the three examples that re-ran fdpaper experiments,
# WithExplain and rsd's test-only set operations: 25091 -> 24604. The
# next change (2026-10-16) bought early shifts in chains of pipelined
# loops (internal/sched/chain.go, the schedule pass's fifth transform),
# the allocation-free one-identifier linear form its proofs run on, the
# executor's constant-side closures that pay for lowering the split
# loops, and decomp.Dist.SameOwners for the unequal-extents fix, and was
# allowed its measured net growth, none of it moved into _test.go:
# 24604 -> 25070 (git numstat: 503 lines added, 17 removed). The next
# change (2026-10-16) made published statements immutable and deleted the
# copies that defended them (core.cloneProgram, the cache's clones in and
# out, codegen.Result.Body, the deep copies in ast.CloneStmt), paying
# for the copy-on-write schedule pass and reach's renamed callers:
# 25070 -> 25052. The next change (2026-10-16) deleted the machine's
# P×P pair statistics (Stats.Traffic; per-pair traffic is a traced run's
# analyze.Matrix) and reach's DSet.Clone (sets are shared, never
# written), nothing added: 25052 -> 25035. The next change (2026-10-17)
# made the program unit the unit of parsing and the summary cache a memo
# of parsed units, paying for the splitter and the memo with deletions
# (ast.Call.Site and the parser's site counter, the whole-text token
# loop, the duplicate distribution-format parser, lexer.New and
# Token.String, summarycache's Len and Dir, which only Stats repeated):
# 25035 -> 25030. The next change (2026-10-17) deleted internal/cfg and
# internal/dataflow, whose only client was codegen's question which DO
# indices are read after their loop, now a structural walk, and made
# GET /report honour the run deadline and the client: 25030 -> 24803.
# The next change (2026-10-17) made a broadcast decide who takes part
# before it clips the section (the rank check out of clip, receivers in
# closed form without a window, boxes filled through pointers), allowed
# at most +20: 24803 -> 24822. The next change (2026-10-17) made a warm
# compile key, schedule and print only the units an edit touched (unit
# digests, a per-unit schedule entry point and the cache's schedules and
# texts), paying with one renderer for the key's three sorted maps and
# Hasher.AddFunc, allowed at most +60: 24822 -> 24882. The next change
# (2026-10-17) made the HTML report one more Service request and deleted
# internal/report, Service.Lookup and RunDeadline, the event queue's
# shards and three commands' copies of the file-writing and remap-level
# code, paying for the bounded traffic grid: 24882 -> 24826. The next
# change (2026-10-17) made the compile service's metrics registry the
# only record of its requests and deleted the duplicate counters,
# internal/metrics' nil-registry mode, its mutable gauges and its
# test-only text parser, paying for the body and processor bounds:
# 24826 -> 24608. The next change (2026-10-17) split sideeffect, section
# and overlap analysis into a local pass the summary cache keeps per
# parsed unit and a propagation over its facts, allowed at most +80:
# 24608 -> 24687. The next change (2026-10-17) declared each compiler
# record once: a phase-3 task's output is its cache entry, the summary
# table and the disk entry's field copies went, and fortd re-exports
# core's Options and Report and the run's Stats and Result: 24687 -> 24551.
# The next change (2026-10-17) made phase 3 stop building what nobody
# reads: depend reports each dependence to an emitter and keeps only sink
# levels, livedecomp skips its passes without a remap, procDists keeps a
# statement's Dist only where it differs and emitShift shares its
# sub-expressions: 24551 -> 24543. The next change (2026-10-17) made a
# compiled program lowered once: spmd.Lower builds the execution plan,
# Plan.Run runs it, fortd.Program keeps one plan per program from its
# first run on, the service keeps the program it holds on a resubmit and
# lowering takes array references, subscripts and statement lists from
# chunks, paying with the non-context spmd.Run and RunSequential and the
# service's unread copy of each listing, allowed at most +30:
# 24543 -> 24573. The next change (2026-10-17) made storage association
# one contract, checked as acg.Build binds actuals to formals, one store
# of COMMON members per node and one flow rule for COMMON arrays through
# units that do not declare them, paying with findCommon, the frame
# stack, the fuzz fence, the arity guards downstream of the contract, the
# call graph's unread loop annotations and overlap.Parameterize, whose
# output the contract rejects; a delayed constant-point broadcast keeps
# its point and a reduced loop around a message at a call is restored:
# 24573 -> 24568. The next change (2026-10-18) made every move of a
# message ask one predicate (comm's hoister) and partition's two
# validity walks one, paying with carriedAt, calleeWrites, passThrough's
# scan of the other calls, validateDelays, DeepestTrueSinkLevel and
# depend.Info, the conflict demotions' copy of the drop, the defensive
# nil checks of the two Explain walks, two declarations nothing read
# and three methods only tests called, for the parser's record of an
# array used as a scalar and livedecomp's loop-bound uses; binding a
# loop that counts down by the values its index takes is paid for by
# comm.Explain's one remark helper:
# 24568 -> 24538. The next change (2026-10-18) split a lowered unit into
# code, shared through the summary cache by every program that holds the
# unit, and a per-plan link; made one array passed to two formals an
# error where the callee may define either; and gave a loop-independent
# pin its own remark, paying in part with the parser's copy of
# Procedure.Constants, the RunSPMD constants loop and spmd's two
# lower-and-run wrappers only tests called:
# 24538 -> 24598. The next change (2026-10-18) bought one ownership
# test per run of equal guards (the schedule pass's last step joins
# adjacent IFs whose conditions print alike when no earlier body may
# write what the condition reads) and a reach walk that visits a body
# without a directive once, allowed at most +60, paying with the run-time
# resolution path's three hand-set positions (one stampPos per
# assignment) and by moving ast.MustInt, which only partition's tests
# called, into those tests (+66 without that move): 24598 -> 24656.
# The next change (2026-10-18) made every remap decision of livedecomp
# one question of one physical-layout dataflow over the real control
# flow, deleting eliminateDead, reachesUse, coalesce's fixpoint,
# lastEvent, firstEvent and hoist's rule scans, the cond special cases,
# markInherited and the AnalyzeExplain wrapper, and bought progen's
# callee that redistributes its formal and a caller's message for such a
# callee built under the callee's layout, and left the count where it
# was: 24656 -> 24656 (an earlier version of this line read 24590, the
# ceiling, which the count has been above since; this step fails). The
# next change (2026-10-19) ran a cursor loop's body in strips of up to
# 256 iterations (spmd/strip.go, machine.Proc.ComputeStrip), seeded and
# assembled distributed arrays by contiguous runs, and made a REAL
# actual for an INTEGER formal and a DISTRIBUTE under an IF compile
# errors, without paying for them: 24656 -> 25112, still failing here.
# The next change (2026-10-19) gave a coroutine only to a processor that
# parks, let a broadcast with plain section bounds decide who it reaches
# before it evaluates them, and read the kill test's must-writes off the
# callee's statements (SectionSummary.Kills) instead of its may-write
# sections: 25112 -> 25214, still failing here. The next change
# (2026-10-19) made every reader of a DO loop's step ask one normal form
# (ast.Do.Norm) and gave the index F77's exit value, deleting countsUp,
# the span swap, bindConst's min/max, runs and its RETURN walk and the step
# reads of SubDim, Reducible, ring, pipeline and the executor's strip,
# which paid for less than the normal form, depend's step rule and the
# reasons of the Missed reduce-bounds remark: 25214 -> 25300, still
# failing here. The next change (2026-10-19) let a processor that stores
# none of a broadcast's "to" array leave before its receivers are worked
# out, took one modulo where Group.Has, first$ and the broadcast tree took
# two, and gave each run one arena for its nodes, first frames, tables and
# returned arrays, deleting newNode, the strip scratch's node-built-outside-
# a-run fallback and Plan.strips, which paid for less than the arena:
# 25300 -> 25341, still failing here. The next change (2026-10-19) gave
# each unit one index of its statements, references, definitions and
# CALLs (ast.Index, kept beside the unit's local facts) and moved the
# phase-3 walkers that rebuilt it onto the index, deleting them and the
# livedecomp copy of reach.State's alignment bookkeeping, paid for the
# executor's truncation of a DO's parameters and the parser's rejection
# of a declaration after a unit's first statement, and moved this step
# to the end of the script: 25341 -> 25340, still failing here. The next
# change (2026-10-19) made a callee's constraint or message instantiated
# at a call one more partition.Item or comm.Access, deleting CallConstraint,
# CallComm, emitCallComm, guardForCall and the second loop each consumer
# ran over them, and paid for the executor's truncation of an INTEGER
# assignment and acg's rejection of an assignment to an undeclared array:
# 25340 -> 25232, still failing here. The next change (2026-10-20) made
# the SPMD dialect's eight message node types one ast.Message whose Op
# indexes one table, deleting parseComm, parsePost, parseWait, the
# per-type branches of the printer, StmtEqual, sideeffect, the lowering
# and sched.split, and rsd.Section.Rename, and paid for comm's folding of
# an actual v +- c into a callee's broadcast root and the executor's
# check that split-phase posts and waits pair: 25232 -> 25080, still
# failing here. The next change (2026-10-21) gave the machine engine one
# link table and one slab of message slots in place of a map, a ring
# object and a ring buffer per link, and a remap one tally of P counters
# per run in place of P + 2 per processor, paying with the rings, one
# statement function for send, recv and postrecv, one for broadcast and
# postbcast, and two Machine getters nothing called: 25080 -> 25074,
# still failing here
LOC_CEILING=24590
LOC=$(make -s loc)
test "$LOC" -le "$LOC_CEILING"
