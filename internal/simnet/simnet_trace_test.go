package simnet

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"adhocshare/internal/trace"
)

// tracedPayload carries a TraceContext like the real RPC messages do.
type tracedPayload struct {
	Size int
	TC   trace.TraceContext
}

func (p tracedPayload) SizeBytes() int               { return p.Size + p.TC.SizeBytes() }
func (p tracedPayload) TraceCtx() trace.TraceContext { return p.TC }

// TestPerMethodBreakdown locks the per-method ledger: a Call is a request
// plus a response message, Send and Transfer one message each, and the
// totals equal the sum over methods.
func TestPerMethodBreakdown(t *testing.T) {
	n := newTestNet()
	n.Register("a", &echoNode{})
	n.Register("b", &echoNode{respSize: 10})
	if _, _, err := n.Call("a", "b", "m.call", Bytes(5), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send("a", "b", "m.send", Bytes(7), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Transfer("a", "b", "m.xfer", Bytes(9), 0); err != nil {
		t.Fatal(err)
	}
	m := n.Metrics()
	want := map[string]MethodStats{
		"m.call": {Messages: 2, Bytes: 15},
		"m.send": {Messages: 1, Bytes: 7},
		"m.xfer": {Messages: 1, Bytes: 9},
	}
	if !reflect.DeepEqual(m.PerMethod, want) {
		t.Errorf("PerMethod = %+v, want %+v", m.PerMethod, want)
	}
	if m.Messages != 4 || m.Bytes != 31 {
		t.Errorf("totals = {%d %d}, want {4 31}", m.Messages, m.Bytes)
	}
}

// TestErrorAndFailurePathTraffic: an error response is a zero-byte
// message; a call to a failed node accounts the request only.
func TestErrorAndFailurePathTraffic(t *testing.T) {
	n := newTestNet()
	n.Register("a", &echoNode{})
	n.Register("boom", HandlerFunc(func(at VTime, _ string, _ Payload) (Payload, VTime, error) {
		return nil, at, errors.New("boom")
	}))
	n.Register("dead", &echoNode{})
	n.Fail("dead")
	n.Call("a", "boom", "m.err", Bytes(100), 0)
	n.Call("a", "dead", "m.lost", Bytes(50), 0)
	m := n.Metrics()
	if got := m.PerMethod["m.err"]; got.Messages != 2 || got.Bytes != 100 {
		t.Errorf("error call = %+v, want a 100-byte request and a 0-byte response", got)
	}
	if got := m.PerMethod["m.lost"]; got.Messages != 1 || got.Bytes != 50 {
		t.Errorf("failed call = %+v, want the request only", got)
	}
}

// TestSnapshotSubPerDirection: a delta carries the traffic of each kind of
// leg — both legs of a call, one of a send — and omits methods whose cells
// did not change.
func TestSnapshotSubPerDirection(t *testing.T) {
	n := newTestNet()
	n.Register("a", &echoNode{})
	n.Register("b", &echoNode{respSize: 1})
	n.Call("a", "b", "m", Bytes(2), 0)
	n.Transfer("a", "b", "t", Bytes(9), 0)
	before := n.Metrics()
	n.Call("a", "b", "m", Bytes(3), 0)
	n.Send("a", "b", "s", Bytes(4), 0)
	delta := n.Metrics().Sub(before)
	if delta.Messages != 3 || delta.Bytes != 8 {
		t.Errorf("delta = %+v", delta)
	}
	if got := delta.PerMethod["m"]; got.Messages != 2 || got.Bytes != 4 {
		t.Errorf("call delta = %+v", got)
	}
	if got := delta.PerMethod["s"]; got.Messages != 1 || got.Bytes != 4 {
		t.Errorf("send delta = %+v", got)
	}
	// Unchanged cells are omitted, not emitted as zeros.
	if _, ok := delta.PerMethod["t"]; ok {
		t.Error("delta contains a method with no traffic")
	}
}

// TestResetMetricsClearsDirections: after a reset no traffic of any leg
// kind is left in the totals or the per-method ledger.
func TestResetMetricsClearsDirections(t *testing.T) {
	n := newTestNet()
	n.Register("a", &echoNode{})
	n.Register("b", &echoNode{})
	n.Call("a", "b", "m", Bytes(1), 0)
	n.Send("a", "b", "s", Bytes(1), 0)
	n.Transfer("a", "b", "t", Bytes(1), 0)
	n.ResetMetrics()
	m := n.Metrics()
	if m.Messages != 0 || m.Bytes != 0 || len(m.PerMethod) != 0 {
		t.Errorf("reset left counters behind: %+v", m)
	}
}

// TestRecorderMessageSpans verifies the fabric's span emission: both call
// legs appear with the carried context, swapped endpoints on the response,
// and VTime-derived intervals.
func TestRecorderMessageSpans(t *testing.T) {
	n := newTestNet()
	n.Register("a", &echoNode{})
	n.Register("b", &echoNode{respSize: 10})
	buf := trace.NewBuffer()
	n.SetRecorder(buf)
	tc := trace.Root(1).Child(1)
	_, done, err := n.Call("a", "b", "m", tracedPayload{Size: 5, TC: tc}, 0)
	if err != nil {
		t.Fatal(err)
	}
	spans := buf.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want request + response: %+v", len(spans), spans)
	}
	req, resp := spans[0], spans[1]
	if req.Query != 1 || req.ID != tc.Span || req.Parent != tc.Parent {
		t.Errorf("request span identity = %+v, want ctx %+v", req, tc)
	}
	if req.From != "a" || req.To != "b" || req.Bytes != 5 || req.Kind != trace.KindMessage || req.Name != "m" {
		t.Errorf("request span = %+v", req)
	}
	wantResp := tc.Child(trace.ResponseSeq)
	if resp.ID != wantResp.Span || resp.Parent != tc.Span {
		t.Errorf("response span identity = %+v, want derived %+v", resp, wantResp)
	}
	if resp.From != "b" || resp.To != "a" || resp.Bytes != 10 {
		t.Errorf("response span = %+v", resp)
	}
	if req.Start != 0 || req.End <= req.Start || resp.End != int64(done) {
		t.Errorf("span intervals wrong: req %d..%d resp %d..%d done %v",
			req.Start, req.End, resp.Start, resp.End, done)
	}
}

func TestRecorderUntracedAndSelfAndUnreachable(t *testing.T) {
	n := newTestNet()
	n.Register("a", &echoNode{})
	n.Register("b", &echoNode{})
	n.Register("dead", &echoNode{})
	n.Fail("dead")
	buf := trace.NewBuffer()
	n.SetRecorder(buf)
	// A payload without a context lands on the query-0 lane.
	n.Call("a", "b", "plain", Bytes(1), 0)
	for _, s := range buf.Spans() {
		if s.Query != 0 {
			t.Errorf("untraced span has query %d: %+v", s.Query, s)
		}
	}
	buf.Reset()
	// Self-calls are free and unrecorded.
	n.Call("a", "a", "local", Bytes(1), 0)
	if buf.Len() != 0 {
		t.Errorf("self call recorded %d spans", buf.Len())
	}
	// Unreachable destinations record the lost request with a note.
	n.Call("a", "dead", "m", Bytes(1), 0)
	spans := buf.Spans()
	if len(spans) != 1 || spans[0].Note != "unreachable" {
		t.Errorf("unreachable spans = %+v", spans)
	}
	// Send and Transfer each record one message span.
	buf.Reset()
	n.Send("a", "b", "s", Bytes(1), 0)
	n.Transfer("a", "b", "t", Bytes(1), 0)
	if buf.Len() != 2 {
		t.Errorf("send+transfer recorded %d spans, want 2", buf.Len())
	}
}

// TestTracingIsObservational: attaching a recorder changes neither the
// accounted traffic nor any virtual completion time.
func TestTracingIsObservational(t *testing.T) {
	run := func(rec trace.Recorder) (Snapshot, VTime) {
		n := New(Config{BaseLatency: time.Millisecond, Bandwidth: 1000, FailTimeout: 10 * time.Millisecond})
		n.Register("a", &echoNode{})
		n.Register("b", &echoNode{respSize: 10})
		n.Register("dead", &echoNode{})
		n.Fail("dead")
		n.SetRecorder(rec)
		var last VTime
		_, d1, _ := n.Call("a", "b", "m", tracedPayload{Size: 5, TC: trace.Root(1)}, 0)
		d2, _ := n.Send("a", "b", "s", Bytes(7), d1)
		d3, _ := n.Transfer("a", "b", "t", Bytes(9), d2)
		_, d4, _ := n.Call("a", "dead", "m", Bytes(1), d3)
		last = d4
		return n.Metrics(), last
	}
	mOff, tOff := run(nil)
	mOn, tOn := run(trace.NewBuffer())
	if tOff != tOn {
		t.Errorf("tracing changed completion time: %v vs %v", tOff, tOn)
	}
	if !reflect.DeepEqual(mOff, mOn) {
		t.Errorf("tracing changed metrics:\noff: %+v\non:  %+v", mOff, mOn)
	}
}

// TestDisabledTracingAllocatesNothing pins the zero-overhead contract: the
// steady-state Call, Send and Transfer paths with no recorder attached
// perform no allocations (the first round warms the per-method metric
// cells), with or without an installed fault plan that leaves the legs
// alone.
func TestDisabledTracingAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		name   string
		faults *FaultPlan
	}{
		{"fault-free", nil},
		{"fault plan", &FaultPlan{Seed: 1, Crashes: []CrashWindow{{Node: "z", From: 0}}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := newTestNet()
			resp := Payload(Bytes(1))
			n.Register("b", HandlerFunc(func(at VTime, _ string, _ Payload) (Payload, VTime, error) {
				return resp, at, nil
			}))
			n.Register("a", &echoNode{})
			n.SetFaults(c.faults)
			req := Payload(Bytes(2))
			ops := func() {
				if _, _, err := n.Call("a", "b", "m", req, 0); err != nil {
					panic(err)
				}
				if _, err := n.Send("a", "b", "s", req, 0); err != nil {
					panic(err)
				}
				if _, err := n.Transfer("a", "b", "t", req, 0); err != nil {
					panic(err)
				}
			}
			ops()
			if allocs := testing.AllocsPerRun(200, ops); allocs != 0 {
				t.Errorf("disabled-tracing Call+Send+Transfer allocate %.1f objects per round, want 0", allocs)
			}
		})
	}
}
