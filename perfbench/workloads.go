package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"adhocshare/internal/dqp"
	"adhocshare/internal/overlay"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/workload"
)

// spec fixes one workload's sizes. Everything else is drawn from the seed.
type spec struct {
	name    string
	indexes int
	data    workload.Config
	// stream draws one cycle of a query workload's ops; nil for
	// publish_churn, whose ops are churnOps.
	stream func(sp spec, data *workload.Dataset, rng *rand.Rand) []query
	cycle  int // ops in one repeating cycle of the query stream
	window int // ops per ops_per_s window; divides cycle
	prefix int // ops replayed on every build to compare builds
	builds int // deployments built per measured run (setup_s samples)
}

var specs = map[string]spec{
	"point_lookup": {
		name:    "point_lookup",
		indexes: 64,
		data:    workload.Config{Persons: 4000, Providers: 32},
		stream:  pointStream,
		cycle:   2048, window: 256, prefix: 64, builds: 3,
	},
	"analytic_join": {
		name:    "analytic_join",
		indexes: 32,
		data: workload.Config{Persons: 2000, Providers: 20, AvgKnows: 4,
			OverlapFraction: 0.2, KnowsNothingFraction: 0.4},
		stream: analyticStream,
		cycle:  40, window: 10, prefix: 5, builds: 3,
	},
	"publish_churn": {
		name:    "publish_churn",
		indexes: 64,
		data:    workload.Config{Persons: 4000, Providers: 32},
	},
}

// Stream and batch constants of the workloads.
const (
	zipfS      = 1.1 // point_lookup subject skew
	batchSize  = 50  // triples per Publish/Retract op
	churnShare = 10  // percent of each provider's triples retracted and re-published
)

// netConfig is the cost model of the paper experiments: 2 ms per hop,
// 1 MiB/s links, 500 ms failure timeout.
func netConfig() simnet.Config {
	return simnet.Config{
		BaseLatency: 2 * time.Millisecond,
		Bandwidth:   1 << 20,
		FailTimeout: 500 * time.Millisecond,
	}
}

// deployment is one overlay with the virtual clock that drives it.
type deployment struct {
	sys   *overlay.System
	clock *simnet.Clock
}

// setupPrint is the virtual fingerprint of a set-up: identical for every
// build of one seed.
type setupPrint struct {
	VTime    int64
	Messages int64
	Bytes    int64
	Postings int
}

func (d *deployment) print() setupPrint {
	m := d.sys.Net().Metrics()
	return setupPrint{VTime: int64(d.clock.Now()), Messages: m.Messages, Bytes: m.Bytes, Postings: d.sys.TotalPostings()}
}

// buildRing creates a converged Chord ring of n index nodes.
func buildRing(n int) (*deployment, error) {
	d := &deployment{
		sys:   overlay.NewSystem(overlay.Config{Bits: 24, Replication: 2, Net: netConfig()}),
		clock: simnet.NewClock(0),
	}
	for i := 0; i < n; i++ {
		_, done, err := d.sys.AddIndexNode(simnet.Addr(fmt.Sprintf("idx-%02d", i)), d.clock.Now())
		if err != nil {
			return nil, fmt.Errorf("add index node %d: %w", i, err)
		}
		d.clock.Advance(done)
	}
	d.clock.Advance(d.sys.Converge(d.clock.Now()))
	return d, nil
}

// addProvider attaches a storage node; wrap, when set, sees it right
// after it registers on the fabric.
func (d *deployment) addProvider(name string, wrap func(simnet.Addr)) error {
	_, done, err := d.sys.AddStorageNode(simnet.Addr(name), d.clock.Now())
	if err != nil {
		return fmt.Errorf("add storage node %s: %w", name, err)
	}
	d.clock.Advance(done)
	if wrap != nil {
		wrap(simnet.Addr(name))
	}
	return nil
}

// buildQueryDeployment is the set-up of the query workloads: ring,
// converge, and every provider attached and published.
func buildQueryDeployment(sp spec, data *workload.Dataset) (*deployment, error) {
	d, err := buildRing(sp.indexes)
	if err != nil {
		return nil, err
	}
	for _, name := range data.Providers() {
		if err := d.addProvider(name, nil); err != nil {
			return nil, err
		}
		done, err := d.sys.Publish(simnet.Addr(name), data.ByProvider[name], d.clock.Now())
		if err != nil {
			return nil, fmt.Errorf("publish %s: %w", name, err)
		}
		d.clock.Advance(done)
	}
	return d, nil
}

// query is one op of a query stream.
type query struct {
	initiator simnet.Addr
	text      string
}

const prologue = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"

// pointStream draws subject-bound single-pattern lookups: subjects
// Zipf-skewed over a seeded permutation of the persons, initiators uniform
// over the providers.
func pointStream(sp spec, data *workload.Dataset, rng *rand.Rand) []query {
	providers := data.Providers()
	perm := rng.Perm(len(data.Persons))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(data.Persons)-1))
	out := make([]query, sp.cycle)
	for i := range out {
		p := data.Persons[perm[zipf.Uint64()]]
		out[i] = query{
			initiator: simnet.Addr(providers[rng.Intn(len(providers))]),
			text:      fmt.Sprintf(prologue+"SELECT ?y WHERE { %s foaf:knows ?y . }", p),
		}
	}
	return out
}

// namePrefixes are the regex parameters of the name-filtered templates.
var namePrefixes = []string{"^A", "^B", "^C", "^D", "^E", "^F", "^G", "^H", "^I", "^J",
	"^M", "^N", "^O", "^P", "^R", "^S", "^T", "^V", "^W", "^Y"}

// analyticStream interleaves the Fig. 4/6/7/8/9 templates round-robin, so
// every seed runs the same template mix, with seeded parameters and
// initiators.
func analyticStream(sp spec, data *workload.Dataset, rng *rand.Rand) []query {
	providers := data.Providers()
	regex := func() string { return namePrefixes[rng.Intn(len(namePrefixes))] }
	person := func() rdf.Term { return data.Persons[rng.Intn(len(data.Persons))] }
	templates := []func() string{
		func() string { return workload.QueryFig4(regex()) },
		workload.QueryConjunction,
		func() string { return workload.QueryOptional(regex()) },
		func() string { return workload.QueryUnion(person()) },
		func() string { return workload.QueryFilter(regex()) },
	}
	out := make([]query, sp.cycle)
	for i := range out {
		out[i] = query{
			initiator: simnet.Addr(providers[rng.Intn(len(providers))]),
			text:      templates[i%len(templates)](),
		}
	}
	return out
}

// pubOp is one op of publish_churn: a Publish or a Retract of one batch.
type pubOp struct {
	provider string
	retract  bool
	triples  []rdf.Triple
}

// churnOps lays out one publish_churn pass: every provider publishes its
// triples in fixed-size batches, then each retracts a seeded 10% of them
// and publishes them again.
func churnOps(data *workload.Dataset, rng *rand.Rand) []pubOp {
	var ops []pubOp
	batches := func(provider string, retract bool, ts []rdf.Triple) {
		for lo := 0; lo < len(ts); lo += batchSize {
			hi := lo + batchSize
			if hi > len(ts) {
				hi = len(ts)
			}
			ops = append(ops, pubOp{provider: provider, retract: retract, triples: ts[lo:hi]})
		}
	}
	for _, name := range data.Providers() {
		batches(name, false, data.ByProvider[name])
	}
	for _, name := range data.Providers() {
		ts := data.ByProvider[name]
		pick := rng.Perm(len(ts))[:len(ts)*churnShare/100]
		sort.Ints(pick)
		churn := make([]rdf.Triple, len(pick))
		for i, j := range pick {
			churn[i] = ts[j]
		}
		batches(name, true, churn)
		batches(name, false, churn)
	}
	return ops
}

// streamRng derives the op-stream generator from the workload seed,
// apart from the dataset's own stream.
func streamRng(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*0x9E3779B1 + 0x5EED))
}

// newEngines gives every initiator its own engine, as a querying node
// would keep one.
func newEngines(sys *overlay.System, data *workload.Dataset) map[simnet.Addr]*dqp.Engine {
	out := map[simnet.Addr]*dqp.Engine{}
	for _, name := range data.Providers() {
		out[simnet.Addr(name)] = dqp.NewEngine(sys, dqp.DefaultOptions())
	}
	return out
}
