package dqp

import (
	"fmt"
	"sort"
	"testing"

	"adhocshare/internal/overlay"
	"adhocshare/internal/rdf"
	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/eval"
	"adhocshare/internal/trace"
)

// chainProviders is the length of the chain the accumulator tests drive.
const chainProviders = 20

// chainPattern is the one pattern every provider of chainData matches.
var chainPattern = rdf.NewTriple(rdf.NewVar("s"), ex("p"), rdf.NewVar("o"))

// chainData gives each of n providers 8 triples matching chainPattern,
// the last two of which the next provider holds too: every hop of the
// chain brings the same number of matches, two of them duplicates.
func chainData(n int) map[string][]rdf.Triple {
	data := map[string][]rdf.Triple{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("D%02d", i)
		for k := 0; k < 8; k++ {
			j := i*6 + k
			data[name] = append(data[name], rdf.NewTriple(ex(fmt.Sprintf("s%d", j)), ex("p"), ex(fmt.Sprintf("o%d", j%5))))
		}
	}
	return data
}

// chainLocalMatches returns each provider's local matches of chainPattern
// in chain (address) order.
func chainLocalMatches(data map[string][]rdf.Triple) []eval.Solutions {
	names := make([]string, 0, len(data))
	for name := range data {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]eval.Solutions, len(names))
	for i, name := range names {
		g := rdf.NewGraph()
		g.AddAll(data[name])
		out[i] = eval.MatchPattern(g, chainPattern)
	}
	return out
}

// TestChainHopSizesMatchRecomputation drives one address-ordered chain
// over 20 providers and checks that every hop's accounted size — taken in
// O(1) from the seeds sized once and the accumulator's running total —
// equals the size recomputed from scratch as Seeds.SizeBytes() +
// Acc.SizeBytes(), with Acc the per-hop Distinct(Union(...)).
func TestChainHopSizesMatchRecomputation(t *testing.T) {
	data := chainData(chainProviders)
	sys, now := buildSystem(t, 4, data)
	buf := trace.NewBuffer()
	sys.Net().SetRecorder(buf)
	e := NewEngine(sys, Options{Strategy: StrategyChain, Conjunction: ConjPipeline})
	q, err := sparql.Parse(`SELECT ?s ?o WHERE { ?s <http://example.org/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	res, _, _, err := e.Run("D00", q, now)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle(t, data, `SELECT ?s ?o WHERE { ?s <http://example.org/p> ?o }`); !sameMultiset(res.Solutions, want) {
		t.Fatalf("chain answer has %d solutions, oracle %d", len(res.Solutions), len(want))
	}

	var hops []trace.Span
	for _, s := range buf.Spans() {
		if s.Kind == trace.KindMessage && s.Name == overlay.MethodChainHop {
			hops = append(hops, s)
		}
	}
	sort.Slice(hops, func(i, j int) bool { return hops[i].Start < hops[j].Start })
	if len(hops) != chainProviders {
		t.Fatalf("recorded %d chain hops, want %d", len(hops), chainProviders)
	}

	locals := chainLocalMatches(data)
	seq := make([]simnet.Addr, chainProviders)
	for i := range seq {
		seq[i] = simnet.Addr(fmt.Sprintf("D%02d", i))
	}
	var acc eval.Solutions
	for i, hop := range hops {
		if hop.To != string(seq[i]) {
			t.Fatalf("hop %d goes to %s, want %s", i, hop.To, seq[i])
		}
		want := chainPayload{
			Patterns: []rdf.Triple{chainPattern},
			Seeds:    eval.Solutions{eval.NewBinding()},
			Acc:      acc,
			Seq:      seq[i+1:],
		}.SizeBytes()
		if hop.Bytes != want {
			t.Errorf("hop %d to %s accounted %d bytes, from-scratch size is %d", i, hop.To, hop.Bytes, want)
		}
		acc = eval.Distinct(eval.Union(acc, locals[i]))
	}
}

// TestChainAccumulatorAllocsLinear checks that the chain's aggregation —
// merging a hop's matches and sizing the next hop's payload — allocates
// linearly in the number of hops: with a fixed number of matches per
// target, 20 hops may cost at most 5× what 5 hops cost. Re-deduplicating
// the whole accumulator on every hop, as Distinct(Union(acc, local))
// does, grows quadratically (~16×).
func TestChainAccumulatorAllocsLinear(t *testing.T) {
	locals := chainLocalMatches(chainData(chainProviders))
	seeds := eval.Solutions{eval.NewBinding()}
	aggregate := func(hops int) float64 {
		return testing.AllocsPerRun(20, func() {
			var acc eval.Accumulator
			seedBytes := seeds.SizeBytes()
			for _, local := range locals[:hops] {
				p := chainPayload{Seeds: seeds, Acc: acc.Solutions(), solBytes: seedBytes + acc.Bytes()}
				if p.SizeBytes() <= 0 {
					t.Fatal("non-positive hop size")
				}
				acc.Add(local)
			}
		})
	}
	short, long := aggregate(5), aggregate(chainProviders)
	t.Logf("aggregation allocs: %.0f at 5 hops, %.0f at %d hops (%.1fx)", short, long, chainProviders, long/short)
	if long > 5*short {
		t.Errorf("aggregation allocs grow superlinearly: %.0f at 5 hops, %.0f at %d hops (%.1fx > 5x)",
			short, long, chainProviders, long/short)
	}
}
