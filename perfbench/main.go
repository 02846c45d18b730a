// Command perfbench is the repository benchmark: seeded, closed-loop,
// single-client workloads that build a deployment through the overlay API
// and drive it through dqp.Engine and overlay.System, checking every
// answer. It reports host-clock metrics (the simulator's own speed) next
// to virtual-clock metrics (simulated response time and traffic, the
// paper's evaluation), and with -trace 1 a separate traced run gives the
// per-layer figures. The last line of standard output is one JSON object.
//
//	go run . -workload point_lookup -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"adhocshare/internal/dqp"
	"adhocshare/internal/overlay"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/algebra"
	"adhocshare/internal/sparql/optimize"
	"adhocshare/internal/trace"
	"adhocshare/internal/workload"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "point_lookup, analytic_join or publish_churn")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := flag.String("out-dir", "", "directory for span files and seed fingerprints (empty = none)")
	flag.Parse()
	sp, ok := specs[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	b := &bench{sp: sp, seed: *seed, traced: *traced == 1, outDir: *outDir,
		phase: time.Duration(*seconds * float64(time.Second)), metrics: map[string]metric{}}
	var err error
	if sp.stream == nil {
		err = b.runChurn()
	} else {
		err = b.runQueries()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", sp.name, *seed, err)
		os.Exit(1)
	}
	res := b.finish()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one benchmark run.
type bench struct {
	sp      spec
	seed    int64
	traced  bool
	outDir  string
	phase   time.Duration // measured time, split in two halves when traced
	metrics map[string]metric

	det        *determinism
	setupPrint *setupPrint
	setups     []float64 // seconds
	attempted  int
	failed     int
	problems   []string
}

func (b *bench) put(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.problems) < 5 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// checkSetup compares a build's virtual fingerprint with the first.
func (b *bench) checkSetup(p setupPrint) {
	if b.setupPrint == nil {
		b.setupPrint = &p
		return
	}
	if *b.setupPrint != p {
		b.fail("nondeterministic set-up: %+v, first build gave %+v", p, *b.setupPrint)
	}
}

func (b *bench) finish() result {
	if b.det.mismatches > 0 {
		b.failed += b.det.mismatches
		b.problems = append(b.problems, "nondeterministic: "+b.det.firstBad)
	}
	if err := checkFingerprint(b.outDir, b.sp.name, b.seed, *b.setupPrint, b.det.first); err != nil {
		b.failed++
		b.problems = append(b.problems, err.Error())
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	fmt.Printf("fail_ratio %d/%d\n", b.failed, b.attempted)
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
}

// putVirtual reports the virtual-clock metrics of the first cycle: the
// end-to-end ones, or with tracing the per-layer counts.
func (b *bench) putVirtual() {
	if b.traced {
		b.putLayerCounts()
		return
	}
	recs := b.det.first
	vt := make([]float64, len(recs))
	var msgs, bytes float64
	for i, r := range recs {
		vt[i] = float64(r.VTime) / float64(time.Millisecond)
		msgs += float64(r.Messages)
		bytes += float64(r.Bytes)
	}
	vt = sortedCopy(vt)
	n := float64(len(recs))
	tv, pct, beyond := tail(vt)
	fmt.Printf("vt_tail_ms: p%v of %d ops (%d beyond)\n", pct, len(vt), beyond)
	b.put("vt_p50_ms", median(vt), "vms")
	b.put("vt_tail_ms", tv, "vms")
	b.put("sim_msgs_per_op", msgs/n, "count")
	b.put("sim_kib_per_op", bytes/n/1024, "KiB")
}

// putLayerCounts reports the per-layer counts of the first cycle; being
// virtual they are exact.
func (b *bench) putLayerCounts() {
	recs := b.det.first
	n := float64(len(recs))
	var hops, subq, targets, rows float64
	var fm, fb [len(families) + 1]float64
	for _, r := range recs {
		hops += float64(r.Hops)
		subq += float64(r.Subq)
		targets += float64(r.Targets)
		rows += float64(r.Rows)
		for f := range fm {
			fm[f] += float64(r.FamMsgs[f])
			fb[f] += float64(r.FamBytes[f])
		}
	}
	if b.sp.stream == nil {
		hops, subq, targets, rows = 0, 0, 0, 0
	}
	b.put("dqp.lookup_hops_per_op", hops/n, "count")
	b.put("dqp.subqueries_per_op", subq/n, "count")
	b.put("dqp.targets_per_op", targets/n, "count")
	b.put("dqp.solutions_per_op", rows/n, "count")
	for f, fam := range families {
		b.put("simnet.msgs_per_op."+fam, fm[f]/n, "count")
		b.put("simnet.kib_per_op."+fam, fb[f]/n/1024, "KiB")
	}
}

// putHost reports the host-clock end-to-end metrics of a measured phase.
func (b *bench) putHost(h *hostRun, peak uint64) {
	lat := sortedCopy(h.lat)
	tv, pct, beyond := tail(lat)
	fmt.Printf("op_tail_ms: p%v of %d ops (%d beyond)\n", pct, len(lat), beyond)
	b.put("setup_s", median(sortedCopy(b.setups)), "s")
	b.put("ops_per_s", h.opsPerSec(), "1/s")
	b.put("op_p50_ms", median(lat), "ms")
	b.put("op_tail_ms", tv, "ms")
	b.put("allocs_per_op", float64(h.allocs)/float64(h.ops()), "count")
	b.put("peak_heap_mib", float64(peak)/(1<<20), "MiB")
}

// putRuntime reports the untraced phase's runtime and fabric figures in a
// traced run.
func (b *bench) putRuntime(h *hostRun, g0, g1 gcSnapshot, msgs int64) {
	n := float64(h.ops())
	cpu := g1.totalCPU - g0.totalCPU
	share := 0.0
	if cpu > 0 {
		share = (g1.gcCPU - g0.gcCPU) / cpu
	}
	b.put("runtime.gc_cpu_share", share, "ratio")
	b.put("runtime.alloc_mib_per_op", float64(h.bytes)/n/(1<<20), "MiB")
	b.put("runtime.gc_cycles_per_op", float64(g1.cycles-g0.cycles)/n, "count")
	b.put("simnet.host_ns_per_msg", float64(h.total.Nanoseconds())/float64(msgs), "ns")
}

// putLayers reports the traced phase's span figures.
func (b *bench) putLayers(t *layerTotals, untraced, traced *hostRun, postings float64) {
	n := float64(t.ops)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / n }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / n }
	b.put("sparql.parse_us_per_op", us(t.parse), "us")
	b.put("sparql.plan_us_per_op", us(t.plan), "us")
	run, dqpSelf, pubSelf := ms(t.run), ms(t.opSelf), 0.0
	if b.sp.stream == nil {
		run, dqpSelf, pubSelf = 0, 0, dqpSelf
	}
	b.put("dqp.run_ms_per_op", run, "ms")
	b.put("dqp.self_ms_per_op", dqpSelf, "ms")
	b.put("overlay.publish_self_ms_per_op", pubSelf, "ms")
	b.put("chord.self_ms_per_op", ms(t.chordSelf), "ms")
	b.put("chord.calls_per_op", float64(t.chordCalls)/n, "count")
	hpl := 0.0
	if t.lookups > 0 {
		hpl = float64(t.finds) / float64(t.lookups)
	}
	b.put("chord.hops_per_lookup", hpl, "count")
	b.put("overlay.index_self_ms_per_op", ms(t.indexSelf), "ms")
	b.put("overlay.index_calls_per_op", float64(t.indexCalls)/n, "count")
	b.put("overlay.store_self_ms_per_op", ms(t.storeSelf), "ms")
	b.put("overlay.postings_per_triple", postings, "count")
	b.put("simnet.failed_legs", float64(t.failedLegs), "count")
	b.put("trace.overhead_ratio", traced.opsPerSec()/untraced.opsPerSec(), "ratio")

	// Handlers on simnet.Parallel branches overlap on the host's cores,
	// so shares are of the summed self time, not of the op's wall time.
	rows := []struct {
		name string
		v    float64
	}{
		{"sparql.parse", us(t.parse) / 1000},
		{"sparql.plan", us(t.plan) / 1000},
		{"dqp.self", dqpSelf},
		{"overlay.publish.self", pubSelf},
		{"chord", ms(t.chordSelf)},
		{"overlay.index", ms(t.indexSelf)},
		{"overlay.store", ms(t.storeSelf)},
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.v
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	fmt.Printf("traced ops %d, host ms/op %.4f, summed self ms/op %.4f\n", t.ops, ms(t.opTime), sum)
	for _, r := range rows {
		fmt.Printf("  %-22s %10.4f ms/op %6.1f%% of self time\n", r.name, r.v, 100*r.v/sum)
	}
	if b.outDir != "" {
		path := filepath.Join(b.outDir, fmt.Sprintf("spans-%s-%d.json", b.sp.name, b.seed))
		if err := writeSpans(path, t.kept); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: span file:", err)
		} else {
			fmt.Printf("%d spans of the first traced ops: %s\n", len(t.kept), path)
		}
	}
}

// runQueries runs point_lookup or analytic_join.
func (b *bench) runQueries() error {
	data := workload.Generate(withSeed(b.sp.data, b.seed))
	stream := b.sp.stream(b.sp, data, streamRng(b.seed))
	want, err := oracle(data, stream)
	if err != nil {
		return err
	}
	b.det = newDeterminism(len(stream))

	builds := b.sp.builds
	if b.traced {
		builds = 1
	}
	var dep *deployment
	for i := 0; i < builds; i++ {
		dep = nil // let the collection below reclaim the previous build
		runtime.GC()
		t0 := time.Now()
		dep, err = buildQueryDeployment(b.sp, data)
		if err != nil {
			return err
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
		b.checkSetup(dep.print())
		// Replaying the prefix compares builds and warms the last one.
		q := newQuerier(b, dep, data, stream, want)
		for pos := 0; pos < b.sp.prefix; pos++ {
			q.op(pos, nil, nil, nil, nil)
		}
	}
	q := newQuerier(b, dep, data, stream, want)
	postings := float64(dep.sys.TotalPostings()) / float64(dep.sys.TotalTriples())

	runtime.GC()
	if !b.traced {
		host, peak := q.phase(b.phase, nil)
		b.putHost(host, peak)
		b.putVirtual()
		return nil
	}
	g0 := readGC()
	untraced, _ := q.phase(b.phase/2, nil)
	g1 := readGC()
	b.putRuntime(untraced, g0, g1, q.msgs)

	buf := trace.NewBuffer()
	dep.sys.Net().SetRecorder(buf)
	log := newSpanLog()
	log.wrapIndexNodes(dep.sys)
	for _, name := range data.Providers() {
		log.wrapStorage(dep.sys, simnet.Addr(name))
	}
	t := &layerTotals{}
	tr, _ := q.phase(b.phase/2, &tracer{log: log, buf: buf, totals: t})
	b.putLayers(t, untraced, tr, postings)
	b.putVirtual()
	return nil
}

func withSeed(c workload.Config, seed int64) workload.Config {
	c.Seed = seed
	return c
}

// tracer is the traced phase's instrumentation.
type tracer struct {
	log    *spanLog
	buf    *trace.Buffer
	totals *layerTotals
}

// querier runs query ops against one deployment.
type querier struct {
	b      *bench
	dep    *deployment
	stream []query
	want   map[string]answer
	eng    map[simnet.Addr]*dqp.Engine
	msgs   int64 // simulated messages of the ops run
}

func newQuerier(b *bench, dep *deployment, data *workload.Dataset, stream []query, want map[string]answer) *querier {
	return &querier{b: b, dep: dep, stream: stream, want: want, eng: newEngines(dep.sys, data)}
}

// phase runs ops in a closed loop for d, and at least one full cycle.
func (q *querier) phase(d time.Duration, tr *tracer) (*hostRun, uint64) {
	m := newMeter()
	w := startHeapWatch(2 * time.Millisecond)
	h := newHostRun(q.b.sp.window)
	start := time.Now()
	for i := 0; i < len(q.stream) || time.Since(start) < d; i++ {
		q.op(i%len(q.stream), m, w, h, tr)
	}
	return h, w.finish()
}

// op runs the query at stream position pos, checks its answer and its
// virtual record, and with m set measures it into h.
func (q *querier) op(pos int, m *meter, w *heapWatch, h *hostRun, tr *tracer) {
	qq := q.stream[pos]
	e := q.eng[qq.initiator]
	var (
		res             *dqp.Result
		stats           dqp.Stats
		done            simnet.VTime
		err             error
		t0, parsed, ran time.Duration
	)
	do := func() {
		if tr != nil {
			t0 = tr.log.now()
		}
		pq, perr := sparql.Parse(qq.text)
		if tr != nil {
			parsed = tr.log.now()
		}
		if perr != nil {
			err = perr
			return
		}
		res, stats, done, err = e.Run(qq.initiator, pq, q.dep.clock.Now())
		if tr != nil {
			ran = tr.log.now()
		}
	}
	if m != nil {
		h.add(measureOp(m, w, do))
	} else {
		do()
	}
	q.b.attempted++
	if err != nil {
		q.b.fail("query %d: %v", pos, err)
		return
	}
	q.dep.clock.Advance(done)
	if !sameAnswer(res.Solutions, q.want[qq.text]) {
		q.b.fail("query %d: %d solutions, oracle has %d", pos, len(res.Solutions), len(q.want[qq.text]))
	}
	r := record{VTime: int64(stats.ResponseTime), Messages: stats.Messages, Bytes: stats.Bytes,
		Hops: stats.LookupHops, Subq: stats.Subqueries, Targets: stats.TargetsContacted,
		Rows: len(res.Solutions)}
	r.addTraffic(stats.PerMethod)
	q.msgs += r.Messages
	where := "measured"
	if m == nil {
		where = "prefix of a later build"
	}
	q.b.det.observe(pos, r, where)
	if tr != nil {
		q.traceOp(tr, qq.text, t0, parsed, ran)
	}
}

// traceOp folds the spans of the op just run into the totals, timing the
// plan step itself on a fresh parse.
func (q *querier) traceOp(tr *tracer, text string, t0, parsed, ran time.Duration) {
	spans := tr.log.take()
	tr.totals.failedLegs += countFailedLegs(tr.buf.Spans())
	tr.buf.Reset()
	var plan time.Duration
	if pq, err := sparql.Parse(text); err == nil {
		p0 := tr.log.now()
		if op, err := algebra.Translate(pq); err == nil {
			optimize.Optimize(op, optimize.Options{PushFilters: dqp.DefaultOptions().PushFilters})
		}
		plan = tr.log.now() - p0
	}
	t := tr.totals
	t.parse += parsed - t0
	t.plan += plan
	t.run += ran - parsed
	t.opTime += ran - t0
	t.addOp(spans, interval{parsed, ran}, plan)
}

// runChurn runs publish_churn: passes of ring set-up, then providers
// joining and publishing in batches, then churn.
func (b *bench) runChurn() error {
	data := workload.Generate(withSeed(b.sp.data, b.seed))
	c := &churner{b: b, ops: churnOps(data, streamRng(b.seed)), m: newMeter()}
	b.det = newDeterminism(len(c.ops))
	if !b.traced {
		host, peak, err := c.phase(b.phase, 3, nil)
		if err != nil {
			return err
		}
		b.putHost(host, peak)
		b.putVirtual()
		return nil
	}
	g0 := readGC()
	untraced, _, err := c.phase(b.phase/2, 1, nil)
	if err != nil {
		return err
	}
	b.putRuntime(untraced, g0, readGC(), c.msgs)
	t := &layerTotals{}
	traced, _, err := c.phase(b.phase/2, 1, t)
	if err != nil {
		return err
	}
	b.putLayers(t, untraced, traced, c.postings)
	b.putVirtual()
	return nil
}

// churner runs publish_churn passes.
type churner struct {
	b        *bench
	ops      []pubOp
	m        *meter
	passes   int
	msgs     int64   // simulated messages of the ops run
	postings float64 // postings per triple after the last pass
}

// phase runs passes, each on a fresh ring, until d of pass time has gone
// and at least minPasses have run; with t set they are traced into it.
// Index coverage is checked after the first and the last pass.
func (c *churner) phase(d time.Duration, minPasses int, t *layerTotals) (*hostRun, uint64, error) {
	host := newHostRun(len(c.ops))
	var peak uint64
	var elapsed time.Duration
	for i := 0; i < minPasses || elapsed < d; i++ {
		runtime.GC()
		t0 := time.Now()
		dep, err := buildRing(c.b.sp.indexes)
		if err != nil {
			return nil, 0, err
		}
		c.b.setups = append(c.b.setups, time.Since(t0).Seconds())
		c.b.checkSetup(dep.print())
		var tr *tracer
		if t != nil {
			tr = &tracer{log: newSpanLog(), buf: trace.NewBuffer(), totals: t}
			dep.sys.Net().SetRecorder(tr.buf)
			tr.log.wrapIndexNodes(dep.sys)
		}
		w := startHeapWatch(2 * time.Millisecond)
		start := time.Now()
		err = c.pass(dep, host, w, tr)
		elapsed += time.Since(start)
		if hp := w.finish(); hp > peak {
			peak = hp
		}
		if err != nil {
			return nil, 0, err
		}
		c.postings = float64(dep.sys.TotalPostings()) / float64(dep.sys.TotalTriples())
		if c.passes == 0 || (i+1 >= minPasses && elapsed >= d) {
			for _, v := range overlay.Arm(dep.sys, 0).CheckCoverage() {
				c.b.fail("coverage after pass %d: %s", c.passes, v)
			}
		}
		c.passes++
	}
	return host, peak, nil
}

// pass runs every op of one pass: providers join on their first op.
func (c *churner) pass(dep *deployment, host *hostRun, w *heapWatch, tr *tracer) error {
	joined := map[string]bool{}
	for pos, op := range c.ops {
		if !joined[op.provider] {
			var wrap func(simnet.Addr)
			if tr != nil {
				wrap = func(a simnet.Addr) { tr.log.wrapStorage(dep.sys, a) }
			}
			if err := dep.addProvider(op.provider, wrap); err != nil {
				return err
			}
			joined[op.provider] = true
		}
		before := dep.sys.Net().Metrics()
		at := dep.clock.Now()
		var (
			done   simnet.VTime
			err    error
			s0, s1 time.Duration
		)
		host.add(measureOp(c.m, w, func() {
			if tr != nil {
				s0 = tr.log.now()
			}
			if op.retract {
				done, err = dep.sys.Retract(simnet.Addr(op.provider), op.triples, at)
			} else {
				done, err = dep.sys.Publish(simnet.Addr(op.provider), op.triples, at)
			}
			if tr != nil {
				s1 = tr.log.now()
			}
		}))
		c.b.attempted++
		if err != nil {
			c.b.fail("pass %d op %d: %v", c.passes, pos, err)
			continue
		}
		dep.clock.Advance(done)
		delta := dep.sys.Net().Metrics().Sub(before)
		r := record{VTime: int64(done - at), Messages: delta.Messages, Bytes: delta.Bytes, Rows: len(op.triples)}
		r.addTraffic(delta.PerMethod)
		c.msgs += r.Messages
		c.b.det.observe(pos, r, fmt.Sprintf("pass %d", c.passes))
		if tr != nil {
			t := tr.totals
			t.failedLegs += countFailedLegs(tr.buf.Spans())
			tr.buf.Reset()
			t.run += s1 - s0
			t.opTime += s1 - s0
			t.addOp(tr.log.take(), interval{s0, s1}, 0)
		}
	}
	return nil
}
