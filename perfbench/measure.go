package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// tailLadder lists the percentiles a tail metric may report, in tenths of
// a percent, highest first. A tail takes the highest one that leaves
// minBeyond samples above its value, so it never rests on a handful of
// outliers.
var tailLadder = []int{990, 900, 750, 500}

const minBeyond = 10

// tail returns the value at the highest ladder percentile with at least
// minBeyond samples beyond it (nearest rank), the percentile, and the
// count beyond. With fewer than 2*minBeyond samples it falls back to the
// median. sorted must be ascending and non-empty.
func tail(sorted []float64) (value, pct float64, beyond int) {
	n := len(sorted)
	for _, p := range tailLadder {
		rank := (p*n + 999) / 1000 // ceil(p/1000 * n) in integers
		if n-rank >= minBeyond {
			return sorted[rank-1], float64(p) / 10, n - rank
		}
	}
	rank := (n + 1) / 2
	return sorted[rank-1], 50, n - rank
}

// median of an ascending, non-empty slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// Runtime metric names read around the measured phase.
const (
	mAllocObjects = "/gc/heap/allocs:objects"
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mHeapObjects  = "/memory/classes/heap/objects:bytes"
	mHeapUnused   = "/memory/classes/heap/unused:bytes"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU     = "/cpu/classes/total:cpu-seconds"
)

// meter reads the heap allocation counters and the heap in use; one
// meter per goroutine.
type meter struct{ s []metrics.Sample }

func newMeter() *meter {
	return &meter{s: []metrics.Sample{{Name: mAllocObjects}, {Name: mAllocBytes},
		{Name: mHeapObjects}, {Name: mHeapUnused}}}
}

// read returns allocated objects and bytes so far, and the bytes of heap
// spans holding objects now.
func (m *meter) read() (objects, bytes, heap uint64) {
	metrics.Read(m.s)
	return m.s[0].Value.Uint64(), m.s[1].Value.Uint64(), m.s[2].Value.Uint64() + m.s[3].Value.Uint64()
}

// heapWatch tracks the highest heap in use while it runs: a sampler
// goroutine polls every interval, and observe adds the samples the
// measuring loop takes after each op.
type heapWatch struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak uint64
}

func startHeapWatch(interval time.Duration) *heapWatch {
	w := &heapWatch{stop: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		m := newMeter()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				_, _, heap := m.read()
				w.observe(heap)
			}
		}
	}()
	return w
}

func (w *heapWatch) observe(v uint64) {
	w.mu.Lock()
	if v > w.peak {
		w.peak = v
	}
	w.mu.Unlock()
}

// finish stops the sampler, waits for it, and returns the peak in bytes.
func (w *heapWatch) finish() uint64 {
	close(w.stop)
	w.wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.peak
}

// gcSnapshot holds the runtime counters the per-layer runtime metrics
// are deltas of.
type gcSnapshot struct {
	cycles          uint64
	gcCPU, totalCPU float64
}

func readGC() gcSnapshot {
	s := []metrics.Sample{{Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return gcSnapshot{cycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// hostSample is the host cost of one op.
type hostSample struct {
	latency time.Duration
	allocs  uint64
	bytes   uint64
}

// hostRun accumulates the host costs of a measured phase.
type hostRun struct {
	window int       // ops per throughput window
	lat    []float64 // ms per op
	total  time.Duration
	allocs uint64
	bytes  uint64
	rates  []float64 // ops per second of each complete window
	cur    time.Duration
}

func newHostRun(window int) *hostRun { return &hostRun{window: window} }

func (h *hostRun) add(s hostSample) {
	h.lat = append(h.lat, float64(s.latency)/float64(time.Millisecond))
	h.total += s.latency
	h.allocs += s.allocs
	h.bytes += s.bytes
	h.cur += s.latency
	if len(h.lat)%h.window == 0 {
		h.rates = append(h.rates, float64(h.window)/h.cur.Seconds())
		h.cur = 0
	}
}

func (h *hostRun) ops() int { return len(h.lat) }

// opsPerSec is ops completed per second of op time (one closed-loop
// client, the benchmark's own checks left out): the median over windows
// of a whole number of stream cycles' worth of ops, so a burst of
// interference from outside the process moves it little.
func (h *hostRun) opsPerSec() float64 {
	if len(h.rates) == 0 {
		return float64(len(h.lat)) / h.total.Seconds()
	}
	return median(sortedCopy(h.rates))
}

// measureOp times fn, counts its heap allocations and reports the heap in
// use after it to w.
func measureOp(m *meter, w *heapWatch, fn func()) hostSample {
	o0, b0, _ := m.read()
	t0 := time.Now()
	fn()
	lat := time.Since(t0)
	o1, b1, heap := m.read()
	w.observe(heap)
	return hostSample{latency: lat, allocs: o1 - o0, bytes: b1 - b0}
}
