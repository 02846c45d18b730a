package eval

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"adhocshare/internal/rdf"
	"adhocshare/internal/sparql"
)

// Property tests for the linear-time set operations: the incremental
// Accumulator, the allocation-free AppendKey, and the hash-partitioned
// Diff and LeftJoinFilter, each checked against the straightforward
// implementation it replaces.

// randTerm draws from a small pool of IRIs, blanks and literals (with
// escapes, language tags and datatypes), so random mappings collide often.
func randTerm(rng *rand.Rand) rdf.Term {
	v := fmt.Sprint(rng.Intn(3))
	switch rng.Intn(5) {
	case 0:
		return rdf.NewIRI("http://t/" + v)
	case 1:
		return rdf.NewBlank("b" + v)
	case 2:
		return rdf.NewLangLiteral("say \"hi\"\n"+v, "en")
	case 3:
		return rdf.NewTypedLiteral(v, rdf.XSDInteger)
	default:
		return rdf.NewLiteral(v)
	}
}

// randSolutions builds up to max mappings over vars, each variable bound
// with probability 2/3, so the result mixes fully and partially bound
// mappings and repeats some of them.
func randSolutions(rng *rand.Rand, vars []string, max int) Solutions {
	n := rng.Intn(max + 1)
	var s Solutions
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(4) == 0 {
			s = append(s, s[rng.Intn(i)]) // an exact repeat
			continue
		}
		b := NewBinding()
		for _, v := range vars {
			if rng.Intn(3) > 0 {
				b[v] = randTerm(rng)
			}
		}
		s = append(s, b)
	}
	return s
}

// refKey is the sort.Strings + strings.Builder rendering Key used before
// AppendKey existed, kept as the reference AppendKey must reproduce.
func refKey(b Binding) string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(b[k].String())
		sb.WriteByte(';')
	}
	return sb.String()
}

func TestAppendKeyMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Ten variables exceed AppendKey's stack array of names.
	vars := []string{"j", "a", "c", "b", "i", "d", "h", "e", "g", "f"}
	cases := Solutions{NewBinding(), nil}
	for i := 0; i < 300; i++ {
		cases = append(cases, randSolutions(rng, vars[:1+i%len(vars)], 1)...)
	}
	for _, b := range cases {
		want := refKey(b)
		if got := b.Key(); got != want {
			t.Errorf("Key(%v) = %q, want %q", b, got, want)
		}
		if got := string(b.AppendKey(nil)); got != want {
			t.Errorf("AppendKey(nil) of %v = %q, want %q", b, got, want)
		}
		if got := string(b.AppendKey([]byte("prefix|"))); got != "prefix|"+want {
			t.Errorf("AppendKey(prefix) of %v = %q, want %q", b, got, "prefix|"+want)
		}
	}
}

// sameSequence reports whether two multisets hold equal mappings in the
// same order.
func sameSequence(a, b Solutions) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestAccumulatorMatchesDistinctUnion(t *testing.T) {
	vars := []string{"x", "y", "z"}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var (
			acc  Accumulator
			all  Solutions
			prev Solutions
		)
		for batch := 0; batch < 1+rng.Intn(8); batch++ {
			local := randSolutions(rng, vars, 12)
			before := append(Solutions(nil), prev...)
			acc.Add(local)
			all = Union(all, local)

			got, want := acc.Solutions(), Distinct(Union(prev, local))
			if !sameSequence(got, want) || !sameSequence(got, Distinct(all)) {
				t.Fatalf("seed %d batch %d: accumulator = %v, want %v", seed, batch, got, want)
			}
			if (got == nil) != (want == nil) {
				t.Fatalf("seed %d batch %d: accumulator nil=%v, Distinct nil=%v", seed, batch, got == nil, want == nil)
			}
			if acc.Len() != len(want) {
				t.Fatalf("seed %d batch %d: Len = %d, want %d", seed, batch, acc.Len(), len(want))
			}
			if acc.Bytes() != want.SizeBytes() {
				t.Fatalf("seed %d batch %d: Bytes = %d, want %d", seed, batch, acc.Bytes(), want.SizeBytes())
			}
			if cap(got) != len(got) {
				t.Fatalf("seed %d batch %d: view has cap %d > len %d", seed, batch, cap(got), len(got))
			}
			// An earlier view is never written through by later Adds.
			if !sameSequence(prev, before) {
				t.Fatalf("seed %d batch %d: an Add changed an earlier view", seed, batch)
			}
			prev = got
		}
	}
}

// nestedDiff and nestedLeftJoinFilter are the O(|a|·|b|) nested loops the
// hashed operators replace, kept as their reference.
func nestedDiff(a, b Solutions) Solutions {
	var out Solutions
	for _, x := range a {
		ok := true
		for _, y := range b {
			if x.Compatible(y) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, x)
		}
	}
	return out
}

func nestedLeftJoinFilter(a, b Solutions, expr sparql.Expression) Solutions {
	var out Solutions
	for _, x := range a {
		matched := false
		for _, y := range b {
			if x.Compatible(y) {
				m := x.Merge(y)
				if Satisfies(expr, m) {
					out = append(out, m)
					matched = true
				}
			}
		}
		if !matched {
			out = append(out, x)
		}
	}
	return out
}

func TestHashedDiffLeftJoinMatchNestedLoop(t *testing.T) {
	exprs := []sparql.Expression{
		parseFilterExpr(t, `(true)`),
		parseFilterExpr(t, `(!bound(?z) || ?z != <http://t/1>)`),
		parseFilterExpr(t, `(bound(?w))`),
	}
	domains := []struct {
		name string
		a, b []string
	}{
		{"shared", []string{"x", "y"}, []string{"y", "z"}},
		{"same", []string{"x", "y"}, []string{"x", "y"}},
		{"disjoint", []string{"x", "y"}, []string{"z", "w"}},
		{"multi-shared", []string{"x", "y", "z"}, []string{"z", "x", "w"}},
	}
	for _, d := range domains {
		for seed := int64(1); seed <= 150; seed++ {
			rng := rand.New(rand.NewSource(seed))
			// max 0 now and then gives the empty-side cases.
			a := randSolutions(rng, d.a, rng.Intn(3)*6)
			b := randSolutions(rng, d.b, rng.Intn(3)*6)
			if got, want := Diff(a, b), nestedDiff(a, b); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: Diff(%v, %v) = %v, want %v", d.name, seed, a, b, got, want)
			}
			for i, expr := range exprs {
				if got, want := LeftJoinFilter(a, b, expr), nestedLeftJoinFilter(a, b, expr); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d expr %d: LeftJoinFilter(%v, %v) = %v, want %v", d.name, seed, i, a, b, got, want)
				}
			}
		}
	}
}

func TestReducedMatchesAdjacentKeyCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		s := randSolutions(rng, []string{"x", "y"}, 10)
		var want Solutions
		for j, b := range s {
			if j > 0 && refKey(b) == refKey(s[j-1]) {
				continue
			}
			want = append(want, b)
		}
		if got := Reduced(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("Reduced(%v) = %v, want %v", s, got, want)
		}
	}
}
