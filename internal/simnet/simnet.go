// Package simnet is a deterministic discrete-cost network simulator. It is
// the testbed substitute for the paper's (unevaluated) ad-hoc deployment:
// every inter-node interaction in the overlay and the distributed query
// processor goes through Network.Call, which accounts messages and bytes
// and advances a virtual clock, so the trade-off the paper reasons about —
// total inter-site data transmission versus response time (Sect. IV-C and
// V) — is measured exactly and reproducibly.
//
// The model: a call from A to B carries a request payload and returns a
// response payload. Each direction costs BaseLatency plus size/Bandwidth
// of virtual time; handler computation is free unless the handler adds
// nested calls, whose cost it threads through explicitly. Parallel fan-out
// completes at the max of the branch completion times; chained forwarding
// accumulates. Failed nodes time out.
package simnet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adhocshare/internal/flight"
	"adhocshare/internal/trace"
)

// Addr identifies a node on the simulated network.
type Addr string

// VTime is a point in virtual time, in nanoseconds since the simulation
// epoch.
type VTime int64

// Add advances a virtual time by a duration.
func (t VTime) Add(d time.Duration) VTime { return t + VTime(d) }

// Duration returns the virtual time as a duration since the epoch.
func (t VTime) Duration() time.Duration { return time.Duration(t) }

func (t VTime) String() string { return time.Duration(t).String() }

// MaxTime returns the latest of the given times — the completion time of a
// parallel fan-out.
func MaxTime(times ...VTime) VTime {
	var m VTime
	for _, t := range times {
		if t > m {
			m = t
		}
	}
	return m
}

// Payload is any message body with a measurable wire size.
type Payload interface {
	SizeBytes() int
}

// Bytes is an opaque payload of a given size, for control messages.
type Bytes int

// SizeBytes implements Payload.
func (b Bytes) SizeBytes() int { return int(b) }

// Handler is implemented by every simulated node. HandleCall receives the
// virtual time at which the request arrives and returns the response along
// with the virtual time at which the response is ready to be sent back
// (at or later than `at`; later when the handler itself made nested calls).
type Handler interface {
	HandleCall(at VTime, method string, req Payload) (resp Payload, done VTime, err error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(at VTime, method string, req Payload) (Payload, VTime, error)

// HandleCall implements Handler.
func (f HandlerFunc) HandleCall(at VTime, method string, req Payload) (Payload, VTime, error) {
	return f(at, method, req)
}

// Errors returned by Call.
var (
	// ErrUnknownNode indicates the destination address was never registered.
	ErrUnknownNode = errors.New("simnet: unknown node")
	// ErrUnreachable indicates the destination node has failed or left.
	ErrUnreachable = errors.New("simnet: node unreachable")
)

// Config parameterizes the cost model.
type Config struct {
	// BaseLatency is the fixed per-message delay (default 2ms), the ad-hoc
	// hop cost.
	BaseLatency time.Duration
	// Bandwidth is the link throughput in bytes per second (default 1 MB/s,
	// a conservative ad-hoc wireless figure).
	Bandwidth float64
	// FailTimeout is the virtual time wasted discovering that a failed node
	// does not answer (default 500ms).
	FailTimeout time.Duration
	// ConcurrentDelivery executes each remote handler invocation on its
	// own goroutine (the per-message server goroutine a real transport
	// would use) instead of inline on the caller's, with a deterministic
	// commit order: the dispatching Call/Send still returns the handler's
	// result synchronously, so virtual times, accounted traffic and
	// location tables are byte-identical to serial delivery. Concurrently
	// in-flight messages (simnet.Parallel fan-outs) get genuinely
	// overlapping handler goroutines plus a seeded scheduling jitter —
	// the mode the `-race` CI job runs to corroborate the adhoclint
	// racefree analysis. See concurrent.go.
	ConcurrentDelivery bool
}

func (c Config) withDefaults() Config {
	if c.BaseLatency <= 0 {
		c.BaseLatency = 2 * time.Millisecond
	}
	if c.Bandwidth <= 0 {
		c.Bandwidth = 1 << 20
	}
	if c.FailTimeout <= 0 {
		c.FailTimeout = 500 * time.Millisecond
	}
	return c
}

// Message directions. A Call is two accounted legs (request + response);
// Send and Transfer are one each. The strings salt every FaultPlan loss
// draw, so changing one moves every draw.
const (
	DirRequest  = "req"
	DirResponse = "resp"
	DirOneWay   = "send"
	DirTransfer = "transfer"
)

// Network is the simulated network fabric. It is safe for concurrent use.
type Network struct {
	cfg Config

	// metrics carries its own lock and sits above mu: traffic accounting
	// must never serialize behind the membership lock.
	metrics metrics

	// hooks holds the optional observers and fault plan. Every operation
	// loads it once, so its legs see one consistent set; the setters
	// replace it copy-on-write under hookMu. Like metrics it sits outside
	// mu: observing a leg never blocks membership changes.
	hooks  atomic.Pointer[hooks]
	hookMu sync.Mutex

	mu     sync.RWMutex
	nodes  map[Addr]Handler
	failed map[Addr]bool
	// linkFactor scales a node's link cost (latency and transfer time);
	// 1.0 (default) is a nominal link, larger is slower. The effective
	// factor of a transfer is the worse endpoint's factor. This models
	// the heterogeneous ad-hoc links that motivate QoS-aware join-site
	// selection (Ye et al., paper Sect. II).
	linkFactor map[Addr]float64
}

// hooks are a network's optional attachments. A nil field is disabled:
// the fabric skips all span and event construction for it, so the
// disabled path allocates nothing.
type hooks struct {
	rec    trace.Recorder
	flt    *flight.Recorder
	faults *FaultPlan
}

// setHook replaces the hooks with a copy changed by set.
func (n *Network) setHook(set func(*hooks)) {
	n.hookMu.Lock()
	defer n.hookMu.Unlock()
	h := *n.hooks.Load()
	set(&h)
	n.hooks.Store(&h)
}

type metrics struct {
	mu        sync.Mutex
	messages  int64
	bytes     int64
	perMethod map[string]*MethodStats
}

// MethodStats aggregates traffic for one RPC method.
type MethodStats struct {
	Messages int64
	Bytes    int64
}

// Snapshot is a point-in-time copy of the traffic counters.
type Snapshot struct {
	// Messages counts every payload transfer (a call and its response are
	// two messages).
	Messages int64
	// Bytes is the total payload volume.
	Bytes int64
	// PerMethod breaks traffic down by RPC method name.
	PerMethod map[string]MethodStats
}

// Sub returns the delta s − earlier, for scoping counters to one query.
// Methods without traffic in between are omitted.
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	out := Snapshot{
		Messages:  s.Messages - earlier.Messages,
		Bytes:     s.Bytes - earlier.Bytes,
		PerMethod: map[string]MethodStats{},
	}
	for k, v := range s.PerMethod {
		d := MethodStats{
			Messages: v.Messages - earlier.PerMethod[k].Messages,
			Bytes:    v.Bytes - earlier.PerMethod[k].Bytes,
		}
		if d.Messages != 0 || d.Bytes != 0 {
			out.PerMethod[k] = d
		}
	}
	return out
}

// Methods lists the method names present in the snapshot, sorted.
func (s Snapshot) Methods() []string {
	out := make([]string, 0, len(s.PerMethod))
	for k := range s.PerMethod {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// New creates a network with the given cost model.
func New(cfg Config) *Network {
	n := &Network{
		cfg:        cfg.withDefaults(),
		nodes:      map[Addr]Handler{},
		failed:     map[Addr]bool{},
		linkFactor: map[Addr]float64{},
	}
	n.hooks.Store(&hooks{})
	return n
}

// Config returns the effective cost-model configuration.
func (n *Network) Config() Config { return n.cfg }

// SetRecorder attaches (or, with nil, detaches) a span recorder. Tracing
// is strictly observational: it never changes accounted messages, bytes,
// or virtual times, and the disabled path allocates nothing.
func (n *Network) SetRecorder(r trace.Recorder) {
	n.setHook(func(h *hooks) { h.rec = r })
}

// Recorder returns the currently attached span recorder (nil = disabled).
func (n *Network) Recorder() trace.Recorder { return n.hooks.Load().rec }

// SetFlightRecorder attaches (or, with nil, detaches) a flight recorder.
// Like tracing it is strictly observational: it never changes accounted
// messages, bytes, or virtual times. Exactly one event is emitted per
// accounted message leg — a delivery, a recorded loss, or an unreachable
// mark — which is the basis of the traffic-conservation monitor.
func (n *Network) SetFlightRecorder(r *flight.Recorder) {
	n.setHook(func(h *hooks) { h.flt = r })
}

// FlightRecorder returns the currently attached flight recorder (nil =
// disabled).
func (n *Network) FlightRecorder() *flight.Recorder { return n.hooks.Load().flt }

// Register attaches a handler at the given address, replacing any previous
// registration and clearing a failure mark.
func (n *Network) Register(addr Addr, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[addr] = h
	delete(n.failed, addr)
}

// Deregister removes a node entirely (graceful departure).
func (n *Network) Deregister(addr Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, addr)
	delete(n.failed, addr)
}

// Fail marks a node as crashed: calls to it time out until Recover.
func (n *Network) Fail(addr Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[addr]; ok {
		n.failed[addr] = true
	}
}

// Recover clears a failure mark.
func (n *Network) Recover(addr Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.failed, addr)
}

// Failed reports whether the node is currently marked failed.
func (n *Network) Failed(addr Addr) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.failed[addr]
}

// Alive reports whether the address is registered and not failed.
func (n *Network) Alive(addr Addr) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	_, ok := n.nodes[addr]
	return ok && !n.failed[addr]
}

// Nodes returns the registered addresses, sorted.
func (n *Network) Nodes() []Addr {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]Addr, 0, len(n.nodes))
	for a := range n.nodes {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetLinkFactor assigns a link-quality factor to a node: 1.0 nominal,
// larger is proportionally slower. Factors below a small positive floor
// are clamped.
func (n *Network) SetLinkFactor(addr Addr, factor float64) {
	if factor < 0.01 {
		factor = 0.01
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkFactor[addr] = factor
}

// LinkFactor returns the node's link-quality factor (1.0 when unset).
// It is the "QoS monitoring" read used by QoS-aware placement.
func (n *Network) LinkFactor(addr Addr) float64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if f, ok := n.linkFactor[addr]; ok {
		return f
	}
	return 1.0
}

// PathFactor is the effective factor of a transfer between two nodes: the
// worse endpoint dominates.
func (n *Network) PathFactor(from, to Addr) float64 {
	ff, tf := n.LinkFactor(from), n.LinkFactor(to)
	if ff > tf {
		return ff
	}
	return tf
}

// transferDelay is the virtual cost of moving size bytes one hop between
// the given endpoints.
func (n *Network) transferDelay(from, to Addr, size int) time.Duration {
	base := n.cfg.BaseLatency + time.Duration(float64(size)/n.cfg.Bandwidth*float64(time.Second))
	return time.Duration(float64(base) * n.PathFactor(from, to))
}

// lookup resolves a destination to its handler and failure mark.
func (n *Network) lookup(to Addr) (Handler, bool, error) {
	n.mu.RLock()
	h, ok := n.nodes[to]
	failed := n.failed[to]
	n.mu.RUnlock()
	if !ok {
		return nil, false, fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	return h, failed, nil
}

// Call performs a synchronous simulated RPC. The request leaves `from` at
// virtual time `at`; the returned VTime is when the response arrives back
// at `from`. Traffic is accounted in both directions. A call from a node
// to itself is free and does not count as network traffic.
func (n *Network) Call(from, to Addr, method string, req Payload, at VTime) (Payload, VTime, error) {
	h, failed, err := n.lookup(to)
	if err != nil {
		return nil, at, err
	}
	if from == to {
		return h.HandleCall(at, method, req)
	}
	hk := *n.hooks.Load()
	m := message{dir: DirRequest, tc: trace.CtxOf(req), method: method, from: from, to: to, size: payloadSize(req)}
	arrive, err := n.leg(hk, m, at, failed)
	if err != nil {
		return nil, arrive, err
	}
	resp, done, err := n.deliver(h, from, to, method, req, arrive)
	m.dir, m.from, m.to = DirResponse, to, from
	if err != nil {
		// Error responses travel back as a small control message, exempt
		// from loss draws: dropping a 16-byte error ack would only mask
		// the application error behind ErrReplyLost without creating any
		// new caller obligation.
		m.size = 0
		n.account(method, 0)
		back := done.Add(n.transferDelay(to, from, 16))
		observe(hk, m, flight.KindDeliver, done, back, "error")
		return nil, back, err
	}
	m.size = payloadSize(resp)
	back, err := n.leg(hk, m, done, false)
	if err != nil {
		return nil, back, err
	}
	return resp, back, nil
}

// Send performs a one-way simulated message: it is accounted once and the
// returned time is the arrival time at the destination. The destination
// handler is invoked with the method and payload; its response payload is
// discarded.
func (n *Network) Send(from, to Addr, method string, req Payload, at VTime) (VTime, error) {
	h, failed, err := n.lookup(to)
	if err != nil {
		return at, err
	}
	if from == to {
		_, done, err := h.HandleCall(at, method, req)
		return done, err
	}
	m := message{dir: DirOneWay, tc: trace.CtxOf(req), method: method, from: from, to: to, size: payloadSize(req)}
	arrive, err := n.leg(*n.hooks.Load(), m, at, failed)
	if err != nil {
		return arrive, err
	}
	_, done, err := n.deliver(h, from, to, method, req, arrive)
	return done, err
}

// Transfer models pure one-way data movement: the payload is accounted and
// the arrival time at the destination is returned, but no handler runs —
// the caller is responsible for the effect at the destination. This is the
// primitive behind chained sub-query forwarding, where a node processes
// locally and forwards onward without a return transfer. Transfers to
// failed nodes are accounted (the data was sent) and report ErrUnreachable
// after the failure timeout; transfers to unknown nodes fail immediately.
func (n *Network) Transfer(from, to Addr, method string, payload Payload, at VTime) (VTime, error) {
	_, failed, err := n.lookup(to)
	if err != nil || from == to {
		return at, err
	}
	m := message{dir: DirTransfer, tc: trace.CtxOf(payload), method: method, from: from, to: to, size: payloadSize(payload)}
	return n.leg(*n.hooks.Load(), m, at, failed)
}

func payloadSize(p Payload) int {
	if p == nil {
		return 0
	}
	return p.SizeBytes()
}

// message identifies one leg: its direction, the payload's trace context
// (a response leg keeps the request's), method, endpoints and wire size.
type message struct {
	dir      string
	tc       trace.TraceContext
	method   string
	from, to Addr
	size     int
}

// leg accounts one message departing at `at` and decides its fate. It
// returns the arrival time at m.to, or the time at which the sender gives
// up together with the typed error:
//   - unreachable: the destination is failed or inside a crash window at
//     departure; costs FailTimeout.
//   - lost: the FaultPlan drop draw fails; costs FailTimeout, except a
//     one-way Send, which carries no acknowledgement and is charged only
//     its wire cost (the loss error is advisory).
//   - in-flight crash: the destination crashes before arrival; costs
//     FailTimeout.
//
// A response leg answers a handler that already ran, so it can only be
// lost — its side effects stand and retrying re-executes the handler,
// which is why retried mutating handlers must be idempotent (faultpath
// rule). The hooks come by value: they are the operation's one snapshot,
// and a pointer parameter would read as caller-visible state to the
// faultpath rule, which would then flag every caller's later sends.
func (n *Network) leg(h hooks, m message, at VTime, failed bool) (VTime, error) {
	n.account(m.method, m.size)
	reply := m.dir == DirResponse
	timeout := at.Add(n.cfg.FailTimeout)
	if !reply && (failed || h.faults.crashed(m.to, at)) {
		observe(h, m, flight.KindUnreachable, at, timeout, "")
		return timeout, fmt.Errorf("%w: %s", ErrUnreachable, m.to)
	}
	if h.faults.drop(m.from, m.to, m.method, m.dir, at, m.size) {
		if reply {
			observe(h, m, flight.KindLost, at, timeout, "reply")
			return timeout, fmt.Errorf("%w: %s %s", ErrReplyLost, m.method, m.from)
		}
		if m.dir == DirOneWay {
			timeout = at.Add(n.transferDelay(m.from, m.to, m.size))
		}
		observe(h, m, flight.KindLost, at, timeout, "")
		return timeout, fmt.Errorf("%w: %s %s", ErrMessageLost, m.method, m.to)
	}
	arrive := at.Add(n.transferDelay(m.from, m.to, m.size))
	if !reply && h.faults.crashed(m.to, arrive) {
		observe(h, m, flight.KindUnreachable, at, timeout, "in-flight crash")
		return timeout, fmt.Errorf("%w: %s", ErrUnreachable, m.to)
	}
	observe(h, m, flight.KindDeliver, at, arrive, "")
	return arrive, nil
}

// observe reports one accounted leg: one message span and one flight
// event in the sender's ring, kind being the leg's outcome (deliver,
// lost, unreachable). The span's identity comes from the trace context
// (zero context → the untraced query-0 lane; a response leg derives its
// ResponseSeq child), its interval from the charged virtual times, never
// from wall clocks. A failed leg's span is noted with its outcome, a
// delivered one with note; the flight event always carries note.
func observe(h hooks, m message, kind string, start, end VTime, note string) {
	if h.rec != nil {
		tc, spanNote := m.tc, note
		if m.dir == DirResponse {
			tc = tc.Child(trace.ResponseSeq)
		}
		if kind != flight.KindDeliver {
			spanNote = kind
		}
		h.rec.Record(trace.Span{
			Query:  tc.Query,
			ID:     tc.Span,
			Parent: tc.Parent,
			Kind:   trace.KindMessage,
			Name:   m.method,
			From:   string(m.from),
			To:     string(m.to),
			Start:  int64(start),
			End:    int64(end),
			Bytes:  m.size,
			Note:   spanNote,
		})
	}
	if h.flt != nil {
		h.flt.Emit(flight.Event{
			Node:   string(m.from),
			Kind:   kind,
			VT:     int64(start),
			End:    int64(end),
			Peer:   string(m.to),
			Method: m.method,
			Query:  m.tc.Query,
			Note:   note,
		})
	}
}

func (n *Network) account(method string, size int) {
	m := &n.metrics
	m.mu.Lock()
	defer m.mu.Unlock()
	m.messages++
	m.bytes += int64(size)
	if m.perMethod == nil {
		m.perMethod = map[string]*MethodStats{}
	}
	st, ok := m.perMethod[method]
	if !ok {
		st = &MethodStats{}
		m.perMethod[method] = st
	}
	st.Messages++
	st.Bytes += int64(size)
}

// Metrics returns a snapshot of the traffic counters.
func (n *Network) Metrics() Snapshot {
	m := &n.metrics
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Snapshot{
		Messages:  m.messages,
		Bytes:     m.bytes,
		PerMethod: make(map[string]MethodStats, len(m.perMethod)),
	}
	for k, v := range m.perMethod {
		out.PerMethod[k] = *v
	}
	return out
}

// ResetMetrics zeroes all counters.
func (n *Network) ResetMetrics() {
	m := &n.metrics
	m.mu.Lock()
	defer m.mu.Unlock()
	m.messages = 0
	m.bytes = 0
	m.perMethod = map[string]*MethodStats{}
}
