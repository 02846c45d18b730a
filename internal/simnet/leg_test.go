package simnet

import (
	"errors"
	"testing"
	"time"

	"adhocshare/internal/flight"
	"adhocshare/internal/trace"
)

// TestLegOutcomes pins what every fate of every fabric operation returns,
// accounts and reports: the charged VTime, the error class, whether the
// handler ran, the per-method traffic, and exactly one span plus one
// flight leg event per accounted message, field by field.
func TestLegOutcomes(t *testing.T) {
	const (
		method   = "m"
		reqSize  = 5
		respSize = 10
		timeout  = VTime(10 * time.Millisecond) // newTestNet's FailTimeout
	)
	delay := func(size int) VTime { return VTime(faultTestDelay(size)) }
	tc := trace.Root(7).Child(1)
	rc := tc.Child(trace.ResponseSeq)
	errBoom := errors.New("boom")

	lossy := &FaultPlan{Seed: 3, LossRate: 0.3}
	scan := func(pred func(at VTime) bool) VTime {
		for ms := 0; ms < 100000; ms++ {
			if at := VTime(time.Duration(ms) * time.Millisecond); pred(at) {
				return at
			}
		}
		t.Fatal("no departure time meets the wanted leg fates")
		return 0
	}
	drops := func(from, to Addr, dir string, at VTime, size int) bool {
		return lossy.drop(from, to, method, dir, at, size)
	}
	callReqLost := scan(func(at VTime) bool { return drops("a", "b", DirRequest, at, reqSize) })
	callReplyLost := scan(func(at VTime) bool {
		return !drops("a", "b", DirRequest, at, reqSize) && drops("b", "a", DirResponse, at+delay(reqSize), respSize)
	})
	sendLost := scan(func(at VTime) bool { return drops("a", "b", DirOneWay, at, reqSize) })
	xferLost := scan(func(at VTime) bool { return drops("a", "b", DirTransfer, at, reqSize) })
	crashFrom := func(from VTime) *FaultPlan {
		return &FaultPlan{Crashes: []CrashWindow{{Node: "b", From: from}}}
	}
	// A crash that starts after departure but before arrival at 0+delay.
	inFlight := crashFrom(VTime(time.Millisecond))

	type leg struct {
		from, to   Addr
		bytes      int
		reply      bool
		start, end VTime
		spanNote   string
		kind       string
		fltNote    string
	}
	req := func(start, end VTime, spanNote, kind, fltNote string) leg {
		return leg{"a", "b", reqSize, false, start, end, spanNote, kind, fltNote}
	}
	cases := []struct {
		name       string
		op         string // "call", "send" or "transfer"
		at         VTime
		faults     *FaultPlan
		failDest   bool
		handlerErr bool
		wantDone   VTime
		wantErr    error
		ran        bool // the destination handler executed
		handlerRan bool // HandlerRan(err)
		legs       []leg
	}{
		{
			name: "call deliver", op: "call",
			wantDone: delay(reqSize) + delay(respSize), ran: true,
			legs: []leg{
				req(0, delay(reqSize), "", flight.KindDeliver, ""),
				{"b", "a", respSize, true, delay(reqSize), delay(reqSize) + delay(respSize), "", flight.KindDeliver, ""},
			},
		},
		{
			name: "call error reply", op: "call", handlerErr: true,
			wantDone: delay(reqSize) + delay(16), wantErr: errBoom, ran: true,
			legs: []leg{
				req(0, delay(reqSize), "", flight.KindDeliver, ""),
				{"b", "a", 0, true, delay(reqSize), delay(reqSize) + delay(16), "error", flight.KindDeliver, "error"},
			},
		},
		{
			name: "call failed destination", op: "call", failDest: true,
			wantDone: timeout, wantErr: ErrUnreachable,
			legs: []leg{req(0, timeout, "unreachable", flight.KindUnreachable, "")},
		},
		{
			name: "call crashed at departure", op: "call", faults: crashFrom(0),
			wantDone: timeout, wantErr: ErrUnreachable,
			legs: []leg{req(0, timeout, "unreachable", flight.KindUnreachable, "")},
		},
		{
			name: "call request lost", op: "call", at: callReqLost, faults: lossy,
			wantDone: callReqLost + timeout, wantErr: ErrMessageLost,
			legs: []leg{req(callReqLost, callReqLost+timeout, "lost", flight.KindLost, "")},
		},
		{
			name: "call reply lost", op: "call", at: callReplyLost, faults: lossy,
			wantDone: callReplyLost + delay(reqSize) + timeout, wantErr: ErrReplyLost, ran: true, handlerRan: true,
			legs: []leg{
				req(callReplyLost, callReplyLost+delay(reqSize), "", flight.KindDeliver, ""),
				{"b", "a", respSize, true, callReplyLost + delay(reqSize), callReplyLost + delay(reqSize) + timeout, "lost", flight.KindLost, "reply"},
			},
		},
		{
			name: "call in-flight crash", op: "call", faults: inFlight,
			wantDone: timeout, wantErr: ErrUnreachable,
			legs: []leg{req(0, timeout, "unreachable", flight.KindUnreachable, "in-flight crash")},
		},
		{
			name: "send deliver", op: "send",
			wantDone: delay(reqSize), ran: true,
			legs: []leg{req(0, delay(reqSize), "", flight.KindDeliver, "")},
		},
		{
			// A one-way loss is charged only its wire cost.
			name: "send lost", op: "send", at: sendLost, faults: lossy,
			wantDone: sendLost + delay(reqSize), wantErr: ErrMessageLost,
			legs: []leg{req(sendLost, sendLost+delay(reqSize), "lost", flight.KindLost, "")},
		},
		{
			name: "send unreachable", op: "send", failDest: true,
			wantDone: timeout, wantErr: ErrUnreachable,
			legs: []leg{req(0, timeout, "unreachable", flight.KindUnreachable, "")},
		},
		{
			name: "transfer deliver", op: "transfer",
			wantDone: delay(reqSize),
			legs:     []leg{req(0, delay(reqSize), "", flight.KindDeliver, "")},
		},
		{
			name: "transfer lost", op: "transfer", at: xferLost, faults: lossy,
			wantDone: xferLost + timeout, wantErr: ErrMessageLost,
			legs: []leg{req(xferLost, xferLost+timeout, "lost", flight.KindLost, "")},
		},
		{
			name: "transfer unreachable", op: "transfer", failDest: true,
			wantDone: timeout, wantErr: ErrUnreachable,
			legs: []leg{req(0, timeout, "unreachable", flight.KindUnreachable, "")},
		},
		{
			name: "transfer in-flight crash", op: "transfer", faults: inFlight,
			wantDone: timeout, wantErr: ErrUnreachable,
			legs: []leg{req(0, timeout, "unreachable", flight.KindUnreachable, "in-flight crash")},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := newTestNet()
			ran := 0
			n.Register("a", &echoNode{})
			n.Register("b", HandlerFunc(func(at VTime, _ string, _ Payload) (Payload, VTime, error) {
				ran++
				if c.handlerErr {
					return nil, at, errBoom
				}
				return Bytes(respSize), at, nil
			}))
			if c.failDest {
				n.Fail("b")
			}
			n.SetFaults(c.faults)
			buf := trace.NewBuffer()
			flt := flight.NewRecorder(0)
			n.SetRecorder(buf)
			n.SetFlightRecorder(flt)
			before := n.Metrics()

			p := tracedPayload{Size: reqSize, TC: tc}
			var (
				done VTime
				err  error
			)
			switch c.op {
			case "call":
				_, done, err = n.Call("a", "b", method, p, c.at)
			case "send":
				done, err = n.Send("a", "b", method, p, c.at)
			case "transfer":
				done, err = n.Transfer("a", "b", method, p, c.at)
			}

			if done != c.wantDone {
				t.Errorf("done = %v, want %v", done, c.wantDone)
			}
			if c.wantErr == nil && err != nil || c.wantErr != nil && !errors.Is(err, c.wantErr) {
				t.Errorf("err = %v, want %v", err, c.wantErr)
			}
			if got := HandlerRan(err); got != c.handlerRan {
				t.Errorf("HandlerRan = %v, want %v", got, c.handlerRan)
			}
			if (ran > 0) != c.ran || ran > 1 {
				t.Errorf("handler ran %d times, want ran=%v", ran, c.ran)
			}

			var wantBytes int64
			for _, l := range c.legs {
				wantBytes += int64(l.bytes)
			}
			delta := n.Metrics().Sub(before)
			wantMsgs := int64(len(c.legs))
			if delta.Messages != wantMsgs || delta.Bytes != wantBytes {
				t.Errorf("traffic delta = %d msgs %d bytes, want %d msgs %d bytes", delta.Messages, delta.Bytes, wantMsgs, wantBytes)
			}
			if got := delta.PerMethod[method]; got != (MethodStats{Messages: wantMsgs, Bytes: wantBytes}) {
				t.Errorf("PerMethod[%s] delta = %+v, want {%d %d}", method, got, wantMsgs, wantBytes)
			}

			spans := buf.Spans()
			if len(spans) != len(c.legs) {
				t.Fatalf("%d spans for %d accounted legs: %+v", len(spans), len(c.legs), spans)
			}
			events := flt.Events()
			if len(events) != len(c.legs) {
				t.Fatalf("%d flight events for %d accounted legs: %+v", len(events), len(c.legs), events)
			}
			if v := flt.CheckConservation(delta.Messages); v != nil {
				t.Errorf("conservation: %v", v)
			}
			for i, l := range c.legs {
				ctx := tc
				if l.reply {
					ctx = rc
				}
				want := trace.Span{
					Query: 7, ID: ctx.Span, Parent: ctx.Parent, Kind: trace.KindMessage, Name: method,
					From: string(l.from), To: string(l.to), Start: int64(l.start), End: int64(l.end),
					Bytes: l.bytes, Note: l.spanNote,
				}
				if spans[i] != want {
					t.Errorf("span %d = %+v\nwant      %+v", i, spans[i], want)
				}
				wantEv := flight.Event{
					Node: string(l.from), Kind: l.kind, VT: int64(l.start), End: int64(l.end),
					Peer: string(l.to), Method: method, Query: 7, Note: l.fltNote,
				}
				if events[i] != wantEv {
					t.Errorf("event %d = %+v\nwant       %+v", i, events[i], wantEv)
				}
			}
		})
	}
}
