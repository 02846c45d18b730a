package main

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"adhocshare/internal/dqp"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql"
	"adhocshare/internal/trace"
	"adhocshare/internal/workload"
)

func ascending(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{n: 300000, pct: 99, value: 297000, beyond: 3000},
		{n: 1000, pct: 99, value: 990, beyond: 10},
		{n: 999, pct: 90, value: 900, beyond: 99},
		{n: 100, pct: 90, value: 90, beyond: 10},
		{n: 99, pct: 75, value: 75, beyond: 24},
		{n: 40, pct: 75, value: 30, beyond: 10},
		{n: 39, pct: 50, value: 20, beyond: 19},
		{n: 5, pct: 50, value: 3, beyond: 2}, // too few for the rule: the median
	}
	for _, c := range cases {
		v, pct, beyond := tail(ascending(c.n))
		if v != c.value || pct != c.pct || beyond != c.beyond {
			t.Errorf("n=%d: got p%v=%v with %d beyond, want p%v=%v with %d beyond",
				c.n, pct, v, beyond, c.pct, c.value, c.beyond)
		}
		if c.n >= 2*minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
		}
	}
}

func tc(span, parent uint64) trace.TraceContext {
	return trace.TraceContext{Query: 1, Span: span, Parent: parent}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		// Children of span 1 overlap each other (parallel branches) and
		// one runs past its parent's end.
		{Method: "chord.find_successor_batch", TC: tc(2, 1), Start: 10, End: 50},
		{Method: "chord.find_successor_batch", TC: tc(3, 1), Start: 30, End: 70},
		// A grandchild is charged to its own parent, not to span 1.
		{Method: "index.replicate", TC: tc(5, 4), Start: 92, End: 96},
		{Method: "index.put_batch", TC: tc(4, 1), Start: 90, End: 98},
		// A call a node makes to itself carries the caller's context.
		{Method: "chord.find_successor", TC: tc(1, 0), Start: 72, End: 80},
		{Method: "chord.find_successor_batch", TC: tc(1, 0), Start: 0, End: 100},
		// An untraced span is the op's own child.
		{Method: "store.match", Start: 120, End: 130},
	}
	parent := selfTimes(spans)
	wantParent := []int{5, 5, 3, 5, 5, -1, -1}
	wantSelf := []time.Duration{40, 40, 4, 4, 8, 100 - 60 - 8 - 8, 10}
	for i := range spans {
		if parent[i] != wantParent[i] {
			t.Errorf("span %d: parent %d, want %d", i, parent[i], wantParent[i])
		}
		if spans[i].Self != wantSelf[i] {
			t.Errorf("span %d: self %v, want %v", i, spans[i].Self, wantSelf[i])
		}
	}

	var lt layerTotals
	lt.addOp(spans, interval{0, 200}, 5)
	if lt.opSelf != 200-5-100-10 {
		t.Errorf("op self %v, want %v", lt.opSelf, 200-5-100-10)
	}
	// Span 4 is a find_successor inside a batch handler: a lookup of its own.
	if lt.chordCalls != 4 || lt.indexCalls != 2 || lt.lookups != 2 || lt.finds != 4 {
		t.Errorf("counts: chord %d index %d lookups %d finds %d", lt.chordCalls, lt.indexCalls, lt.lookups, lt.finds)
	}
}

func TestUnionLen(t *testing.T) {
	ivs := []interval{{5, 10}, {0, 3}, {2, 4}, {9, 12}, {20, 30}}
	if got := unionLen(ivs, interval{0, 25}); got != 4+7+5 {
		t.Errorf("union %v, want 16", got)
	}
	if got := unionLen(nil, interval{0, 25}); got != 0 {
		t.Errorf("empty union %v", got)
	}
}

// carrier is a test payload carrying a trace context.
type carrier struct{ TC trace.TraceContext }

func (carrier) SizeBytes() int                 { return 8 }
func (c carrier) TraceCtx() trace.TraceContext { return c.TC }

// TestWrapperUnderParallelFanOut drives wrapped handlers from a
// simnet.Parallel fan-out, whose branches run on goroutines of their own;
// run it with -race.
func TestWrapperUnderParallelFanOut(t *testing.T) {
	const leaves, rounds = 12, 20
	net := simnet.New(simnet.Config{})
	log := newSpanLog()
	for i := 0; i < leaves; i++ {
		leaf := simnet.Addr(fmt.Sprintf("leaf-%d", i))
		net.Register(leaf, log.wrap(leaf, simnet.HandlerFunc(func(at simnet.VTime, _ string, _ simnet.Payload) (simnet.Payload, simnet.VTime, error) {
			time.Sleep(50 * time.Microsecond)
			return simnet.Bytes(4), at, nil
		})))
	}
	root := simnet.HandlerFunc(func(at simnet.VTime, _ string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
		parent := trace.CtxOf(req)
		_, done := simnet.Parallel(leaves, leaves, func(i int) (simnet.Payload, simnet.VTime, error) {
			return net.Call("root", simnet.Addr(fmt.Sprintf("leaf-%d", i)), "index.leaf",
				carrier{TC: parent.Child(uint64(i))}, at)
		})
		return simnet.Bytes(4), done, nil
	})
	net.Register("root", log.wrap("root", root))
	net.Register("client", simnet.HandlerFunc(func(at simnet.VTime, _ string, _ simnet.Payload) (simnet.Payload, simnet.VTime, error) {
		return nil, at, nil
	}))

	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				root := trace.Root(uint64(1 + c*rounds + r))
				if _, _, err := net.Call("client", "root", "chord.fan", carrier{TC: root}, 0); err != nil {
					t.Error(err)
				}
			}
		}(c)
	}
	wg.Wait()
	spans := log.take()
	if len(spans) != 2*rounds*(leaves+1) {
		t.Fatalf("%d spans, want %d", len(spans), 2*rounds*(leaves+1))
	}
	parent := selfTimes(spans)
	roots := 0
	for i, s := range spans {
		if s.Self < 0 {
			t.Errorf("span %d: negative self time %v", i, s.Self)
		}
		if s.Method == "chord.fan" {
			roots++
			if parent[i] != -1 {
				t.Errorf("root span %d has parent %d", i, parent[i])
			}
			continue
		}
		p := parent[i]
		if p < 0 || spans[p].TC.Span != s.TC.Parent {
			t.Errorf("leaf span %d not linked to its caller", i)
		}
	}
	if roots != 2*rounds {
		t.Errorf("%d root spans, want %d", roots, 2*rounds)
	}
	var lt layerTotals
	lt.addOp(spans, interval{0, log.now()}, 0)
	if lt.indexCalls != 2*rounds*leaves {
		t.Errorf("index calls %d", lt.indexCalls)
	}
}

// TestOracleCatchesDroppedRow runs real queries through a small
// deployment, then drops one solution row.
func TestOracleCatchesDroppedRow(t *testing.T) {
	sp := specs["analytic_join"]
	sp.indexes = 6
	sp.cycle = 5
	sp.data.Persons, sp.data.Providers, sp.data.Seed = 60, 4, 3
	data := workload.Generate(sp.data)
	stream := analyticStream(sp, data, rand.New(rand.NewSource(3)))
	want, err := oracle(data, stream)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := buildQueryDeployment(sp, data)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, q := range stream {
		pq, err := sparql.Parse(q.text)
		if err != nil {
			t.Fatal(err)
		}
		res, _, done, err := dqp.NewEngine(dep.sys, dqp.DefaultOptions()).Run(q.initiator, pq, dep.clock.Now())
		if err != nil {
			t.Fatal(err)
		}
		dep.clock.Advance(done)
		if !sameAnswer(res.Solutions, want[q.text]) {
			t.Fatalf("correct answer rejected for %s", q.text)
		}
		if len(res.Solutions) == 0 {
			continue
		}
		checked++
		if sameAnswer(res.Solutions[1:], want[q.text]) {
			t.Errorf("dropped row accepted for %s", q.text)
		}
		// Same length, but one row duplicated in place of another.
		if len(res.Solutions) > 1 {
			dup := append(res.Solutions[:0:0], res.Solutions...)
			for i := 1; i < len(dup); i++ {
				if dup[i].Key() != dup[0].Key() {
					dup[i] = dup[0]
					if sameAnswer(dup, want[q.text]) {
						t.Errorf("duplicated row accepted for %s", q.text)
					}
					break
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no query returned rows")
	}
}

func TestDeterminismCountsDisagreements(t *testing.T) {
	d := newDeterminism(2)
	d.observe(0, record{VTime: 1}, "a")
	d.observe(1, record{VTime: 2}, "a")
	d.observe(0, record{VTime: 1}, "b")
	d.observe(1, record{VTime: 3}, "b")
	if d.mismatches != 1 || d.firstBad == "" {
		t.Errorf("mismatches %d (%q)", d.mismatches, d.firstBad)
	}
}
