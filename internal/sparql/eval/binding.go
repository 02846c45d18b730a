// Package eval implements local evaluation of SPARQL algebra expressions
// over an rdf.Graph: solution mappings, the compatible-mapping join/union/
// difference operations of Pérez et al. (Sect. IV-A of the paper), filter
// expression evaluation with effective boolean values, and the solution
// sequence modifiers.
//
// The same primitives are reused by the distributed query processor, which
// ships partial solution multisets between nodes and joins them in-network.
package eval

import (
	"bytes"
	"slices"
	"sort"
	"strings"

	"adhocshare/internal/rdf"
)

// Binding is one solution mapping µ: a partial function from variable
// names to RDF terms.
//
// Bindings are immutable after construction by convention: every algebra
// operation (Merge, Project, extend, ...) builds a fresh mapping via
// Clone or make, so sharing a Binding across nodes or solution sets is
// safe. Mutate only freshly cloned bindings.
//
//adhoclint:wireimmutable every producer clones before writing
type Binding map[string]rdf.Term

// NewBinding returns an empty solution mapping.
func NewBinding() Binding { return Binding{} }

// Clone returns an independent copy of the binding.
func (b Binding) Clone() Binding {
	out := make(Binding, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}

// Bound reports whether the variable is bound.
func (b Binding) Bound(v string) bool {
	_, ok := b[v]
	return ok
}

// Compatible reports whether two mappings agree on every shared variable
// (the compatibility relation of Pérez et al.).
func (b Binding) Compatible(c Binding) bool {
	small, large := b, c
	if len(large) < len(small) {
		small, large = large, small
	}
	for k, v := range small {
		if w, ok := large[k]; ok && w != v {
			return false
		}
	}
	return true
}

// Merge returns µ1 ∪ µ2 for compatible mappings. The caller must ensure
// compatibility; on conflicting variables the receiver's value wins.
func (b Binding) Merge(c Binding) Binding {
	out := make(Binding, len(b)+len(c))
	for k, v := range c {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

// Equal reports whether two mappings bind exactly the same variables to
// the same terms.
func (b Binding) Equal(c Binding) bool {
	if len(b) != len(c) {
		return false
	}
	for k, v := range b {
		if w, ok := c[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// Key returns a canonical string for the mapping, used for DISTINCT and
// set-based deduplication: "name=term;" per variable, in sorted variable
// order.
func (b Binding) Key() string {
	var buf [256]byte
	return string(b.AppendKey(buf[:0]))
}

// AppendKey appends the mapping's Key to dst and returns the extended
// buffer. It allocates nothing for mappings of up to eight variables when
// dst has room, so set-based deduplication can probe with a reused buffer
// and copy a key only when it inserts one.
func (b Binding) AppendKey(dst []byte) []byte {
	var arr [8]string
	names := arr[:0]
	for k := range b {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		dst = append(dst, k...)
		dst = append(dst, '=')
		dst = b[k].AppendTo(dst)
		dst = append(dst, ';')
	}
	return dst
}

// SizeBytes estimates the wire size of the mapping for the network cost
// model: variable names plus term encodings.
func (b Binding) SizeBytes() int {
	n := 2
	for k, v := range b {
		n += len(k) + v.SizeBytes()
	}
	return n
}

// Project returns a mapping restricted to the given variables.
func (b Binding) Project(vars []string) Binding {
	out := make(Binding, len(vars))
	for _, v := range vars {
		if t, ok := b[v]; ok {
			out[v] = t
		}
	}
	return out
}

// String renders the binding deterministically for debugging.
func (b Binding) String() string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = "?" + k + "→" + b[k].String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Solutions is a solution multiset Ω.
//
// Like Binding, a Solutions value is immutable after construction: the
// algebra operations return fresh slices (sub-slicing in Slice is fine —
// the elements are never overwritten), so partial solution sets can ship
// between nodes without deep-copying.
//
//adhoclint:wireimmutable algebra ops return fresh slices, elements never overwritten
type Solutions []Binding

// SizeBytes estimates the wire size of the multiset.
func (s Solutions) SizeBytes() int {
	n := 4
	for _, b := range s {
		n += b.SizeBytes()
	}
	return n
}

// Clone deep-copies the multiset.
func (s Solutions) Clone() Solutions {
	out := make(Solutions, len(s))
	for i, b := range s {
		out[i] = b.Clone()
	}
	return out
}

// Join computes Ω1 ⋈ Ω2: the merge of every compatible pair.
func Join(a, b Solutions) Solutions {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	// Hash join on the shared variables when there are any; otherwise a
	// cross product.
	shared := sharedVars(a, b)
	if len(shared) == 0 {
		out := make(Solutions, 0, len(a)*len(b))
		for _, x := range a {
			for _, y := range b {
				// With disjoint domains every pair is compatible, but a
				// variable may still be bound in only some mappings of a
				// side, so check anyway.
				if x.Compatible(y) {
					out = append(out, x.Merge(y))
				}
			}
		}
		return out
	}
	h := newHashIndex(b, shared)
	var out Solutions
	for _, x := range a {
		bucket, ok := h.probe(x)
		if !ok {
			// x leaves shared variables unbound: probe everything.
			for _, y := range b {
				if x.Compatible(y) {
					out = append(out, x.Merge(y))
				}
			}
			continue
		}
		for _, j := range bucket {
			if y := b[j]; x.Compatible(y) {
				out = append(out, x.Merge(y))
			}
		}
		for _, j := range h.loose {
			if y := b[j]; x.Compatible(y) {
				out = append(out, x.Merge(y))
			}
		}
	}
	return out
}

// hashIndex partitions a multiset by the values of the shared variables,
// the build side of the hashed Join, Diff and LeftJoinFilter. A mapping
// that leaves some shared variable unbound cannot be keyed; it goes to the
// loose list, which every probe must also scan. All positions are indexes
// into the indexed multiset, ascending within each bucket and in loose.
type hashIndex struct {
	shared  []string
	ids     map[string]int // join key → bucket number
	buckets [][]int
	loose   []int
	buf     []byte // reused join-key buffer
}

func newHashIndex(b Solutions, shared []string) hashIndex {
	h := hashIndex{shared: shared, ids: make(map[string]int)}
	for j, y := range b {
		key, ok := h.key(y)
		if !ok {
			h.loose = append(h.loose, j)
			continue
		}
		id, seen := h.ids[string(key)]
		if !seen {
			id = len(h.buckets)
			h.ids[string(key)] = id
			h.buckets = append(h.buckets, nil)
		}
		h.buckets[id] = append(h.buckets[id], j)
	}
	return h
}

// key renders x's values on the shared variables into the reused buffer,
// reporting false when x leaves one of them unbound.
func (h *hashIndex) key(x Binding) ([]byte, bool) {
	h.buf = h.buf[:0]
	for _, v := range h.shared {
		t, ok := x[v]
		if !ok {
			return nil, false
		}
		h.buf = t.AppendTo(h.buf)
		h.buf = append(h.buf, '|')
	}
	return h.buf, true
}

// probe returns the bucket of mappings that agree with x on every shared
// variable. ok is false when x leaves a shared variable unbound; then any
// mapping may be compatible with it.
func (h *hashIndex) probe(x Binding) (bucket []int, ok bool) {
	key, ok := h.key(x)
	if !ok {
		return nil, false
	}
	if id, hit := h.ids[string(key)]; hit {
		return h.buckets[id], true
	}
	return nil, true
}

// candidates writes into dst, in ascending order, the positions of every
// mapping of the n indexed ones that may be compatible with x: its bucket
// merged with the loose list, or all n when x cannot be keyed. Callers
// that scan the candidates therefore visit them in the nested loop's order.
func (h *hashIndex) candidates(x Binding, n int, dst []int) []int {
	bucket, ok := h.probe(x)
	if !ok {
		for j := 0; j < n; j++ {
			dst = append(dst, j)
		}
		return dst
	}
	loose := h.loose
	for len(bucket) > 0 && len(loose) > 0 {
		if bucket[0] < loose[0] {
			dst, bucket = append(dst, bucket[0]), bucket[1:]
		} else {
			dst, loose = append(dst, loose[0]), loose[1:]
		}
	}
	dst = append(dst, bucket...)
	return append(dst, loose...)
}

func sharedVars(a, b Solutions) []string {
	inA := map[string]bool{}
	for _, x := range a {
		for v := range x {
			inA[v] = true
		}
	}
	seen := map[string]bool{}
	var out []string
	for _, y := range b {
		for v := range y {
			if inA[v] && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Union computes Ω1 ∪ Ω2 (multiset union).
func Union(a, b Solutions) Solutions {
	out := make(Solutions, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// Diff computes Ω1 ∖ Ω2: mappings of Ω1 compatible with no mapping of Ω2.
// Ω2 is hash-partitioned on the shared variables, so each mapping of Ω1
// is checked only against its bucket and the loose mappings.
func Diff(a, b Solutions) Solutions {
	h := newHashIndex(b, sharedVars(a, b))
	var (
		out   Solutions
		cands []int
	)
	for _, x := range a {
		cands = h.candidates(x, len(b), cands[:0])
		ok := true
		for _, j := range cands {
			if x.Compatible(b[j]) {
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

// LeftJoin computes Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2), the semantics of
// OPTIONAL (Sect. IV-E). The optional filter condition, when present, is
// applied by the caller via LeftJoinFilter.
func LeftJoin(a, b Solutions) Solutions {
	return Union(Join(a, b), Diff(a, b))
}

// Distinct removes duplicate mappings, preserving first occurrences.
func Distinct(s Solutions) Solutions {
	keys := keySet{seen: make(map[string]struct{}, len(s))}
	var out Solutions
	for _, b := range s {
		if keys.insert(b) {
			out = append(out, b)
		}
	}
	return out
}

// keySet is a set of mapping keys (Binding.Key). A probe renders the key
// into a reused buffer and looks it up without allocating; only a key that
// is actually inserted is copied into the map.
type keySet struct {
	seen map[string]struct{}
	buf  []byte
}

// insert adds b's key and reports whether it was not yet in the set.
func (k *keySet) insert(b Binding) bool {
	k.buf = b.AppendKey(k.buf[:0])
	if _, dup := k.seen[string(k.buf)]; dup {
		return false
	}
	if k.seen == nil {
		k.seen = make(map[string]struct{})
	}
	k.seen[string(k.buf)] = struct{}{}
	return true
}

// Accumulator is an incremental set union of solution multisets, the
// in-network aggregation of a pattern's matches across its providers.
// After Add(s1), ..., Add(sk) it holds exactly Distinct(Union(s1, ...,
// sk)), in the same order, and Bytes equals that multiset's SizeBytes.
// Each Add costs time linear in its own batch: nothing already held is
// deduplicated or sized again. The zero value is an empty accumulator.
//
// The seen-key set lives as long as the accumulator; scope one to the
// aggregation it serves so the keys are released when it finishes.
type Accumulator struct {
	keys  keySet
	sols  Solutions
	bytes int // sum of the held mappings' SizeBytes
}

// Add merges s into the accumulator: each mapping whose key is not yet
// held is appended, in the order of s.
func (a *Accumulator) Add(s Solutions) {
	for _, b := range s {
		if a.keys.insert(b) {
			a.sols = append(a.sols, b)
			a.bytes += b.SizeBytes()
		}
	}
}

// Len returns the number of distinct mappings held.
func (a *Accumulator) Len() int { return len(a.sols) }

// Solutions returns the mappings held so far (nil when empty). The view's
// capacity is capped at its length, so later Adds never write into memory
// it can see: a view handed to a payload stays immutable.
func (a *Accumulator) Solutions() Solutions {
	if len(a.sols) == 0 {
		return nil
	}
	return a.sols[:len(a.sols):len(a.sols)]
}

// Bytes returns Solutions().SizeBytes() in constant time.
func (a *Accumulator) Bytes() int { return 4 + a.bytes }

// Reduced removes adjacent duplicate mappings.
func Reduced(s Solutions) Solutions {
	var (
		out       Solutions
		prev, cur []byte
	)
	for i, b := range s {
		cur = b.AppendKey(cur[:0])
		if i == 0 || !bytes.Equal(cur, prev) {
			out = append(out, b)
		}
		prev, cur = cur, prev
	}
	return out
}

// Project restricts every mapping to the given variables.
func Project(s Solutions, vars []string) Solutions {
	out := make(Solutions, len(s))
	for i, b := range s {
		out[i] = b.Project(vars)
	}
	return out
}

// Slice applies OFFSET and LIMIT (-1 meaning unset).
func Slice(s Solutions, offset, limit int) Solutions {
	if offset > 0 {
		if offset >= len(s) {
			return nil
		}
		s = s[offset:]
	}
	if limit >= 0 && limit < len(s) {
		s = s[:limit]
	}
	return s
}
