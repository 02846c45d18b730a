package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"adhocshare/internal/overlay"
	"adhocshare/internal/simnet"
	"adhocshare/internal/trace"
)

// span is one handler invocation timed on the host clock, linked into
// its op through the request's trace context.
type span struct {
	Method string             `json:"method"`
	Node   simnet.Addr        `json:"node"`
	TC     trace.TraceContext `json:"tc"`
	Start  time.Duration      `json:"start_ns"` // since the log's epoch
	End    time.Duration      `json:"end_ns"`
	Self   time.Duration      `json:"self_ns"`
	Op     int                `json:"op"`
}

// spanLog collects spans from handlers that simnet.Parallel runs on
// several goroutines at once.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) now() time.Duration { return time.Since(l.epoch) }

// wrap returns h with every call timed into the log.
func (l *spanLog) wrap(addr simnet.Addr, h simnet.Handler) simnet.Handler {
	return simnet.HandlerFunc(func(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
		start := l.now()
		resp, done, err := h.HandleCall(at, method, req)
		end := l.now()
		l.mu.Lock()
		l.spans = append(l.spans, span{Method: method, Node: addr, TC: trace.CtxOf(req), Start: start, End: end})
		l.mu.Unlock()
		return resp, done, err
	})
}

// take returns the spans logged so far and empties the log.
func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.spans
	l.spans = nil
	return out
}

// wrapIndexNodes re-registers every index node behind a timing handler.
func (l *spanLog) wrapIndexNodes(sys *overlay.System) {
	for _, n := range sys.IndexNodes() {
		sys.Net().Register(n.Addr(), l.wrap(n.Addr(), simnet.HandlerFunc(n.HandleCall)))
	}
}

// wrapStorage re-registers one storage node behind a timing handler.
func (l *spanLog) wrapStorage(sys *overlay.System, addr simnet.Addr) {
	n, ok := sys.Storage(addr)
	if !ok {
		return
	}
	sys.Net().Register(addr, l.wrap(addr, simnet.HandlerFunc(n.HandleCall)))
}

type interval struct{ start, end time.Duration }

// unionLen is the length of the union of the intervals, each clipped to
// within.
func unionLen(ivs []interval, within interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < within.start {
			iv.start = within.start
		}
		if iv.end > within.end {
			iv.end = within.end
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			if iv.end > cur.end {
				cur.end = iv.end
			}
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// link finds each span's parent: the innermost span that encloses it in
// host time and whose trace span is the child's parent (a forwarded
// request) or the child's own (a call a node makes to itself). Spans are
// in completion order, so of two identical intervals the later-logged one
// is the outer. It returns -1 for spans the op itself caused.
func link(spans []span) []int {
	byID := map[uint64][]int{}
	for i, s := range spans {
		if s.TC.Valid() {
			byID[s.TC.Span] = append(byID[s.TC.Span], i)
		}
	}
	parent := make([]int, len(spans))
	for i, c := range spans {
		parent[i] = -1
		if !c.TC.Valid() {
			continue
		}
		best := -1
		for _, id := range []uint64{c.TC.Parent, c.TC.Span} {
			for _, j := range byID[id] {
				p := spans[j]
				if j == i || p.Start > c.Start || p.End < c.End {
					continue
				}
				if p.Start == c.Start && p.End == c.End && j < i {
					continue
				}
				if best < 0 || p.Start > spans[best].Start {
					best = j
				}
			}
		}
		parent[i] = best
	}
	return parent
}

// selfTimes sets each span's Self to its duration minus the union of its
// children's intervals, and returns the parent links.
func selfTimes(spans []span) []int {
	parent := link(spans)
	kids := make([][]interval, len(spans))
	for i, p := range parent {
		if p >= 0 {
			kids[p] = append(kids[p], interval{spans[i].Start, spans[i].End})
		}
	}
	for i := range spans {
		iv := interval{spans[i].Start, spans[i].End}
		spans[i].Self = iv.end - iv.start - unionLen(kids[i], iv)
	}
	return parent
}

// layerTotals accumulates the traced run's per-layer figures.
type layerTotals struct {
	ops                      int
	parse, plan, run, opSelf time.Duration
	chordSelf, indexSelf     time.Duration
	storeSelf                time.Duration
	chordCalls, indexCalls   int
	lookups, finds           int
	failedLegs               int
	opTime                   time.Duration
	kept                     []span // spans of the first ops, for the span file
}

// keepSpans caps the spans kept for the span file.
const keepSpans = 20000

// addOp folds one op's spans into the totals. opIv is the interval of the
// program call the spans belong to (Run, or Publish/Retract); planned is
// host time already attributed to planning inside it.
func (t *layerTotals) addOp(spans []span, opIv interval, planned time.Duration) {
	parent := selfTimes(spans)
	var top []interval
	for i, s := range spans {
		switch {
		case strings.HasPrefix(s.Method, "chord."):
			t.chordSelf += s.Self
			t.chordCalls++
			if strings.HasPrefix(s.Method, "chord.find_successor") {
				t.finds++
				if parent[i] < 0 || spans[parent[i]].Method != s.Method {
					t.lookups++
				}
			}
		case strings.HasPrefix(s.Method, "index."):
			t.indexSelf += s.Self
			t.indexCalls++
		case strings.HasPrefix(s.Method, "store."):
			t.storeSelf += s.Self
		}
		if parent[i] < 0 {
			top = append(top, interval{s.Start, s.End})
		}
	}
	t.opSelf += opIv.end - opIv.start - planned - unionLen(top, opIv)
	if len(t.kept)+len(spans) <= keepSpans {
		for _, s := range spans {
			s.Op = t.ops
			t.kept = append(t.kept, s)
		}
	}
	t.ops++
}

// countFailedLegs counts message spans the fabric marked as lost,
// unreachable or answered with an error.
func countFailedLegs(spans []trace.Span) int {
	n := 0
	for _, s := range spans {
		if s.Kind == trace.KindMessage && s.Note != "" {
			n++
		}
	}
	return n
}

// writeSpans stores the kept spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
