package machine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fortd/internal/trace"
)

// TestEngineDifferential is what keeps the channel oracle in the tree:
// generated node programs run once on the machine and once on the
// oracle, and the two runs must agree on Stats, on the sorted JSONL
// trace, on every payload every processor received and on how the run
// and each processor ended.
//
// A program is a global sequence of operations — send/receive pairs,
// split-phase IRecvInto/WaitHandle, Broadcast and PostBcastInto/
// WaitHandle to every processor or to a group (along the ring in the
// ring lanes), AllReduce, Compute, zero-word messages — of which every processor
// executes its own projection in order. That cannot deadlock: sends
// never block, and by the time all operations before some operation are
// complete its participants have nothing else left to wait for. Every
// twentieth seed ends in a failure instead (diffTail), and every program
// runs with and without a plan of delays, duplicates and a straggler.

type diffKind int

const (
	opSendRecv  diffKind = iota // a sends, b receives
	opSplit                     // a sends, b posts IRecvInto handle h
	opWait                      // b waits for handle h
	opBcast                     // Broadcast from root a to group g
	opPostBcast                 // PostBcastInto handle h from root a to group g
	opWaitBcast                 // everyone waits for handle h
	opReduce                    // AllReduce
	opCompute                   // a computes n flops
)

type diffOp struct {
	kind       diffKind
	a, b, h    int
	words, n   int
	nilPayload bool  // a zero-word payload passed as nil
	g          Group // a broadcast's: All, or a range of 0..P processors
}

// diffTail is how a generated program ends once the operations are done.
type diffTail int

const (
	tailNone     diffTail = iota
	tailDeadlock          // the first c processors wait for each other in a cycle
	tailAbort             // p0 aborts the run once every peer is about to block
	tailFlood             // p0 overruns its link to p1 once every peer is about to block
)

const diffLinkDepth = 128 // > 2 × the sends a program can queue on one link

// genOps generates one program; ring sends its broadcasts along the ring
// instead of the tree, and draws the same numbers either way.
func genOps(rng *rand.Rand, np int, ring bool) []diffOp {
	var ops []diffOp
	type pending struct {
		bcast   bool
		proc, h int
	}
	var open []pending
	nextH := 0
	pair := func() (int, int) {
		a := rng.Intn(np)
		b := rng.Intn(np)
		if np > 1 && b == a {
			b = (a + 1 + rng.Intn(np-1)) % np
		}
		return a, b
	}
	words := func() (int, bool) {
		if rng.Intn(5) == 0 {
			return 0, rng.Intn(2) == 0
		}
		return 1 + rng.Intn(40), false
	}
	group := func() Group {
		g := All
		if rng.Intn(2) != 0 {
			g = Group{First: rng.Intn(np), N: rng.Intn(np + 1)}
		}
		g.Ring = ring
		return g
	}
	closeOne := func(i int) {
		pd := open[i]
		open = append(open[:i], open[i+1:]...)
		if pd.bcast {
			ops = append(ops, diffOp{kind: opWaitBcast, h: pd.h})
		} else {
			ops = append(ops, diffOp{kind: opWait, b: pd.proc, h: pd.h})
		}
	}
	for n := 10 + rng.Intn(30); n > 0; n-- {
		if len(open) > 0 && rng.Intn(3) == 0 {
			closeOne(rng.Intn(len(open)))
			continue
		}
		switch k := rng.Intn(10); {
		case k < 3:
			a, b := pair()
			w, isNil := words()
			ops = append(ops, diffOp{kind: opSendRecv, a: a, b: b, words: w, nilPayload: isNil})
		case k < 5:
			a, b := pair()
			w, isNil := words()
			ops = append(ops, diffOp{kind: opSplit, a: a, b: b, h: nextH, words: w, nilPayload: isNil})
			open = append(open, pending{proc: b, h: nextH})
			nextH++
		case k < 6:
			w, isNil := words()
			ops = append(ops, diffOp{kind: opBcast, a: rng.Intn(np), words: w, nilPayload: isNil, g: group()})
		case k < 7:
			w, isNil := words()
			ops = append(ops, diffOp{kind: opPostBcast, a: rng.Intn(np), h: nextH, words: w, nilPayload: isNil, g: group()})
			open = append(open, pending{bcast: true, h: nextH})
			nextH++
		case k < 8:
			// AllReduce reads word 0 of what it receives, and with a handle
			// open the link may still hold somebody's zero-word message
			for len(open) > 0 {
				closeOne(rng.Intn(len(open)))
			}
			ops = append(ops, diffOp{kind: opReduce})
		default:
			ops = append(ops, diffOp{kind: opCompute, a: rng.Intn(np), n: 1 + rng.Intn(500)})
		}
	}
	for len(open) > 0 {
		closeOne(rng.Intn(len(open)))
	}
	return ops
}

var errInjected = errors.New("injected node failure")

// diffNode is processor p's projection of ops followed by the tail. got
// collects a copy of everything it received.
func diffNode(m *Machine, p *Proc, ops []diffOp, tail diffTail, cycle int, got *[][]float64) {
	id, np := p.ID(), m.P()
	record := func(d []float64) { *got = append(*got, append([]float64{}, d...)) }
	// a payload is a function of the operation alone. staged builds it in
	// Scratch; a PostBcastInto root keeps its payload until the wait, longer
	// than a Scratch buffer lasts, so it builds a fresh one.
	payload := func(i int, op diffOp, staged bool) []float64 {
		if op.nilPayload {
			return nil
		}
		var buf []float64
		if staged {
			buf = p.Scratch(op.words)
		} else {
			buf = make([]float64, op.words)
		}
		for j := range buf {
			buf[j] = float64(1000*i + j)
		}
		return buf
	}
	handles := map[int]*Handle{}
	for i, op := range ops {
		p.SetContext("GEN", i+1, "")
		switch op.kind {
		case opSendRecv:
			if id == op.a {
				p.Send(op.b, payload(i, op, true))
			}
			if id == op.b {
				record(p.Recv(op.a))
			}
		case opSplit:
			if id == op.a {
				p.Send(op.b, payload(i, op, true))
			}
			if id == op.b {
				handles[op.h] = new(Handle)
				p.IRecvInto(handles[op.h], op.a)
			}
		case opWait:
			if id == op.b {
				record(p.WaitHandle(handles[op.h]))
			}
		case opBcast:
			var data []float64
			if id == op.a {
				data = payload(i, op, true)
			}
			record(p.Broadcast(op.a, op.g, data))
		case opPostBcast:
			var data []float64
			if id == op.a {
				data = payload(i, op, false)
			}
			handles[op.h] = new(Handle)
			p.PostBcastInto(handles[op.h], op.a, op.g, data)
		case opWaitBcast:
			record(p.WaitHandle(handles[op.h]))
		case opReduce:
			record([]float64{p.AllReduce(float64(id+i), func(acc, v float64) float64 { return acc + v })})
		case opCompute:
			if id == op.a {
				p.Compute(op.n)
			}
		}
	}
	p.SetContext("TAIL", 1+id, "")
	// A peer of an abort or a flood announces itself to p0 and then
	// blocks on a link nothing will ever use, so whether the failure
	// finds it parked or about to park it ends the same way.
	ready := func(blockOn int) {
		p.Send(0, nil)
		p.Recv(blockOn)
	}
	allReady := func() {
		for q := 1; q < np; q++ {
			p.Recv(q)
		}
	}
	switch tail {
	case tailDeadlock:
		if id < cycle {
			p.Recv((id + 1) % cycle)
		}
	case tailAbort:
		if id != 0 {
			ready(0)
			return
		}
		allReady()
		m.Abort(0, errInjected)
	case tailFlood:
		if id != 0 {
			ready(1 + id%(np-1)) // the next of p1..p(np-1)
			return
		}
		allReady()
		for i := 0; i <= diffLinkDepth; i++ {
			p.Send(1, []float64{float64(i)})
		}
	}
}

// diffRun is everything one run exposes.
type diffRun struct {
	stats    Stats
	jsonl    []byte
	got      [][][]float64
	err      string
	procErrs []string
}

func runDiff(t *testing.T, newMachine func(Config) *Machine, np int, ops []diffOp, tail diffTail, cycle int, plan *FaultPlan) (diffRun, *Machine) {
	t.Helper()
	cfg := DefaultConfig(np)
	cfg.LinkDepth = diffLinkDepth
	m := newMachine(cfg)
	tr := trace.New()
	m.SetTracer(tr)
	m.SetFaultPlan(plan)
	out := diffRun{got: make([][][]float64, np)}
	for pid := 0; pid < np; pid++ {
		pid := pid
		m.Go(pid, func(p *Proc) { diffNode(m, p, ops, tail, cycle, &out.got[pid]) })
	}
	if err := m.Wait(); err != nil {
		out.err = err.Error()
	}
	if (out.err != "") != (tail != tailNone) {
		t.Fatalf("Wait() = %q with tail %d", out.err, tail)
	}
	for pid := 0; pid < np; pid++ {
		if err := m.ProcErr(pid); err != nil {
			out.procErrs = append(out.procErrs, err.Error())
		}
	}
	out.stats = m.Stats()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out.jsonl = buf.Bytes()
	return out, m
}

func TestEngineDifferential(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	for _, lane := range []struct {
		np   int
		ring bool
	}{{1, false}, {2, false}, {3, false}, {4, false}, {7, false}, {16, false}, {4, true}, {7, true}, {16, true}} {
		np, name := lane.np, fmt.Sprintf("P=%d", lane.np)
		if lane.ring {
			name += "-ring"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(seed<<8 | int64(np)))
				ops := genOps(rng, np, lane.ring)
				tail, cycle := tailNone, 0
				if m := seed % 20; m >= 1 && m <= 3 && np > 1 {
					tail = diffTail(m)
					cycle = 2 + rng.Intn(np-1)
				}
				if tail == tailFlood && np < 3 {
					tail = tailNone // p1 has no third processor to block on
				}
				faults := &FaultPlan{Seed: seed, DelayProb: 0.3, DelayMax: 50,
					DupProb: 0.2, Stragglers: map[int]float64{int(seed) % np: 2.5}}
				if tail == tailAbort || tail == tailFlood {
					// a duplicate left on the link a peer blocks on would be
					// dropped or not depending on when the abort lands
					faults.DupProb = 0
				}
				for _, plan := range []*FaultPlan{nil, faults} {
					des, m := runDiff(t, New, np, ops, tail, cycle, plan)
					ref, _ := runDiff(t, newChanMachine, np, ops, tail, cycle, plan)
					at := fmt.Sprintf("seed %d, faults %v, tail %d", seed, plan != nil, tail)
					if !reflect.DeepEqual(des.stats, ref.stats) {
						t.Errorf("%s: stats differ:\n des=%+v\n ref=%+v", at, des.stats, ref.stats)
					}
					if !bytes.Equal(des.jsonl, ref.jsonl) {
						t.Errorf("%s: JSONL exports differ (%d vs %d bytes)", at, len(des.jsonl), len(ref.jsonl))
					}
					if !reflect.DeepEqual(des.got, ref.got) {
						t.Errorf("%s: received payloads differ", at)
					}
					if des.err != ref.err || !reflect.DeepEqual(des.procErrs, ref.procErrs) {
						t.Errorf("%s: failures differ:\n des: %s %q\n ref: %s %q", at, des.err, des.procErrs, ref.err, ref.procErrs)
					}
					auditPayloads(t, m)
					if t.Failed() {
						return
					}
				}
			}
		})
	}
}
