package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"adhocshare/internal/simnet"
	"adhocshare/internal/sparql"
	"adhocshare/internal/sparql/algebra"
	"adhocshare/internal/sparql/eval"
	"adhocshare/internal/workload"
)

// answer is a solution multiset in canonical form: the sorted binding
// keys.
type answer []string

func canonical(sols eval.Solutions) answer {
	out := make(answer, len(sols))
	for i, b := range sols {
		out[i] = b.Key()
	}
	sort.Strings(out)
	return out
}

// sameAnswer reports whether got is the multiset want.
func sameAnswer(got eval.Solutions, want answer) bool {
	if len(got) != len(want) {
		return false
	}
	c := canonical(got)
	for i := range c {
		if c[i] != want[i] {
			return false
		}
	}
	return true
}

// oracle answers every distinct query of a stream centrally, with
// eval.Eval over the union of all providers' triples.
func oracle(data *workload.Dataset, stream []query) (map[string]answer, error) {
	g := data.UnionGraph()
	out := map[string]answer{}
	for _, q := range stream {
		if _, ok := out[q.text]; ok {
			continue
		}
		parsed, err := sparql.Parse(q.text)
		if err != nil {
			return nil, fmt.Errorf("oracle parse: %w", err)
		}
		op, err := algebra.Translate(parsed)
		if err != nil {
			return nil, fmt.Errorf("oracle translate: %w", err)
		}
		sols, err := eval.Eval(op, g)
		if err != nil {
			return nil, fmt.Errorf("oracle eval: %w", err)
		}
		out[q.text] = canonical(sols)
	}
	return out, nil
}

// families group RPC methods by the layer that handles them.
var families = [...]string{"chord", "index", "store", "dqp"}

func familyOf(method string) int {
	prefix, _, _ := strings.Cut(method, ".")
	for i, f := range families {
		if f == prefix {
			return i
		}
	}
	return len(families)
}

// record is the virtual outcome of one op. The simulator is deterministic,
// so an op's record is a function of the seed and the op's place in the
// stream: it must repeat exactly on every build and every cycle.
type record struct {
	VTime    int64 // simulated response time, ns
	Messages int64
	Bytes    int64
	FamMsgs  [len(families) + 1]int64 // by familyOf; the last is any other method
	FamBytes [len(families) + 1]int64
	Hops     int // dqp.Stats counts (queries only)
	Subq     int
	Targets  int
	Rows     int // solutions, or triples of a publish op
}

func (r *record) addTraffic(per map[string]simnet.MethodStats) {
	for m, st := range per {
		f := familyOf(m)
		r.FamMsgs[f] += st.Messages
		r.FamBytes[f] += st.Bytes
	}
}

// determinism compares every op's record with the first one seen at the
// same stream position, and counts the disagreements.
type determinism struct {
	first      []record
	mismatches int
	firstBad   string
}

func newDeterminism(cycle int) *determinism {
	return &determinism{first: make([]record, 0, cycle)}
}

// observe checks record r of stream position pos (pos < cycle).
func (d *determinism) observe(pos int, r record, where string) {
	if pos == len(d.first) {
		d.first = append(d.first, r)
		return
	}
	if d.first[pos] != r {
		d.mismatches++
		if d.firstBad == "" {
			d.firstBad = fmt.Sprintf("%s: op %d gave %+v, first run gave %+v", where, pos, r, d.first[pos])
		}
	}
}

// fingerprint hashes a seed's virtual results: set-up and the first cycle.
func fingerprint(setup setupPrint, recs []record) (string, error) {
	b, err := json.Marshal(struct {
		Setup   setupPrint
		Records []record
	}{setup, recs})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// checkFingerprint compares a seed's fingerprint with the one an earlier
// run of the same binary stored under dir, storing it on first sight. An
// empty dir skips the check.
func checkFingerprint(dir, workloadName string, seed int64, setup setupPrint, recs []record) error {
	if dir == "" {
		return nil
	}
	print, err := fingerprint(setup, recs)
	if err != nil {
		return err
	}
	self, err := binaryHash()
	if err != nil {
		return err
	}
	fdir := filepath.Join(dir, "fingerprints", self[:16])
	if err := os.MkdirAll(fdir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(fdir, fmt.Sprintf("%s-%d", workloadName, seed))
	prev, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return os.WriteFile(path, []byte(print+"\n"), 0o644)
	}
	if err != nil {
		return err
	}
	if strings.TrimSpace(string(prev)) != print {
		return fmt.Errorf("virtual results of %s seed %d differ from an earlier run of this binary (%s vs %s)",
			workloadName, seed, print[:12], strings.TrimSpace(string(prev))[:12])
	}
	return nil
}

func binaryHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
