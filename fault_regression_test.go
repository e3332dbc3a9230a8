package fortd

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fortd/internal/machine"
	"fortd/internal/trace"
)

// This file promotes the deterministic fault-injection scenarios into a
// regression suite: the trace export of every scenario is pinned
// against a golden in testdata/faults, so a change in fault semantics
// shows up as a diff, not a surprise. The goldens were recorded when
// the machine had two engines and both produced them; engine against
// oracle is now internal/machine's TestEngineDifferential.
// Regenerate with `go test -run TestFaultRegression -update`.

type faultScenario struct {
	name string
	cfg  machine.Config
	plan *machine.FaultPlan
	node func(m *machine.Machine, p *machine.Proc)
	// wantErr marks scenarios that must fail (abort, deadlock,
	// congestion); clean scenarios must return nil from Wait.
	wantErr bool
}

// iPSC-flavored cost model shared by all scenarios.
func faultCfg(p int) machine.Config {
	return machine.Config{P: p, Latency: 70, PerWord: 0.4, FlopCost: 0.1}
}

// ringNode is a 12-iteration ring exchange: compute, send to the right
// neighbor, receive from the left. Sends never block (links are deep),
// so the dataflow is deterministic under any fault plan.
func ringNode(m *machine.Machine, p *machine.Proc) {
	id := p.ID()
	for it := 0; it < 12; it++ {
		p.SetContext("RING", it+1, "")
		p.Compute(3 + id)
		buf := make([]float64, 1+(id+it)%4)
		for j := range buf {
			buf[j] = float64(id*100 + it)
		}
		p.Send((id+1)%3, buf)
		p.Recv((id + 2) % 3)
	}
}

func faultScenarios() []faultScenario {
	var scs []faultScenario
	// delays, duplication and a straggler, pinned per seed: each seed
	// has its own golden file, so the per-seed export bytes are part of
	// the contract (FaultPlan docs promise seed-stable schedules)
	for _, seed := range []int64{1, 7, 1234} {
		scs = append(scs, faultScenario{
			name: fmt.Sprintf("ring_seed%d", seed),
			cfg:  faultCfg(3),
			plan: &machine.FaultPlan{
				Seed: seed, DelayProb: 0.3, DelayMax: 50,
				DupProb: 0.2, Stragglers: map[int]float64{1: 2.5},
			},
			node: ringNode,
		})
	}
	// split-phase ring under faults: every processor posts its receive
	// before computing and waits after, so a straggler plus random
	// delays decide how much of each flight the compute hides — the
	// KindWait residuals are in the golden
	for _, seed := range []int64{2, 42} {
		scs = append(scs, faultScenario{
			name: fmt.Sprintf("overlap_ring_seed%d", seed),
			cfg:  faultCfg(3),
			plan: &machine.FaultPlan{
				Seed: seed, DelayProb: 0.3, DelayMax: 50,
				Stragglers: map[int]float64{1: 2.5},
			},
			node: func(m *machine.Machine, p *machine.Proc) {
				id := p.ID()
				for it := 0; it < 12; it++ {
					p.SetContext("ORING", it+1, "")
					h := new(machine.Handle)
					p.IRecvInto(h, (id+2)%3)
					buf := make([]float64, 1+(id+it)%4)
					for j := range buf {
						buf[j] = float64(id*100 + it)
					}
					p.Send((id+1)%3, buf)
					p.Compute(3 + id)
					p.WaitHandle(h)
				}
			},
		})
	}
	// recursive-doubling allreduce at a non-power-of-two P with a slow
	// processor: p3's delay propagates through every later exchange round,
	// and p4-p5, the partial upper block of round 4, also send to the
	// lower ranks without a partner; clocks, message counts and the golden
	// trace pin the schedule
	scs = append(scs, faultScenario{
		name: "reduce_tree_straggler",
		cfg:  faultCfg(6),
		plan: &machine.FaultPlan{Seed: 3, Stragglers: map[int]float64{3: 2.0}},
		node: func(m *machine.Machine, p *machine.Proc) {
			id := p.ID()
			p.SetContext("REDUCE", 1, "")
			p.Compute(5 * (id + 1))
			p.AllReduce(float64(id+1), func(a, b float64) float64 { return a + b })
		},
	})
	// cooperative abort: the origin computes and aborts without sending,
	// so its peers block on links with nothing in flight and the only
	// possible outcome is an abort-unblock
	scs = append(scs, faultScenario{
		name: "abort_straggler",
		cfg:  faultCfg(3),
		plan: &machine.FaultPlan{Seed: 9, Stragglers: map[int]float64{0: 2.0}},
		node: func(m *machine.Machine, p *machine.Proc) {
			switch p.ID() {
			case 0:
				p.SetContext("ORIGIN", 1, "")
				p.Compute(5)
				m.Abort(0, errors.New("injected node failure"))
			case 1:
				p.SetContext("WORK", 7, "")
				p.Recv(0)
			case 2:
				p.SetContext("WORK", 8, "")
				p.Recv(1)
			}
		},
		wantErr: true,
	})
	// deadlock: a four-processor wait cycle with distinct virtual clocks
	// (one straggler), detected structurally (empty event queue); the
	// abort events carry each processor's attribution and clock
	scs = append(scs, faultScenario{
		name: "deadlock_cycle",
		cfg:  faultCfg(4),
		plan: &machine.FaultPlan{Stragglers: map[int]float64{2: 3.0}},
		node: func(m *machine.Machine, p *machine.Proc) {
			id := p.ID()
			p.SetContext("STEP", 10+id, "")
			p.Compute((id + 1) * 10)
			p.Recv((id + 1) % 4)
		},
		wantErr: true,
	})
	// congestion: a sender overruns a LinkDepth-4 link whose receiver is
	// itself blocked on a third processor; the fifth send must fail with
	// a CongestionError
	scs = append(scs, func() faultScenario {
		cfg := faultCfg(3)
		cfg.LinkDepth = 4
		return faultScenario{
			name: "congestion",
			cfg:  cfg,
			node: func(m *machine.Machine, p *machine.Proc) {
				switch p.ID() {
				case 0:
					p.SetContext("FLOOD", 3, "")
					for i := 0; i < 8; i++ {
						p.Send(1, []float64{float64(i), 2})
					}
				case 1:
					p.SetContext("SINK", 4, "")
					p.Recv(2)
				case 2:
					p.SetContext("SINK2", 5, "")
					p.Recv(1)
				}
			},
			wantErr: true,
		}
	}())
	return scs
}

// runFaultScenario returns the scenario's sorted JSONL trace export.
func runFaultScenario(t *testing.T, sc faultScenario) []byte {
	t.Helper()
	m := machine.New(sc.cfg)
	tr := trace.New()
	m.SetTracer(tr) // before SetFaultPlan: straggler events must be traced
	if sc.plan != nil {
		m.SetFaultPlan(sc.plan)
	}
	for pid := 0; pid < sc.cfg.P; pid++ {
		m.Go(pid, func(p *machine.Proc) { sc.node(m, p) })
	}
	err := m.Wait()
	if sc.wantErr && err == nil {
		t.Fatal("Wait() = nil, want failure")
	}
	if !sc.wantErr && err != nil {
		t.Fatalf("Wait() = %v, want clean run", err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFaultRegression(t *testing.T) {
	for _, sc := range faultScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			got := runFaultScenario(t, sc)
			path := filepath.Join("testdata", "faults", sc.name+".jsonl")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test -run TestFaultRegression -update` to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("trace export differs from golden %s: %s", path, firstDiff(got, want))
			}
		})
	}
}
