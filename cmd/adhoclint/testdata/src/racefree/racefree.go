// Package racefree exercises the handler race-readiness rule: any two
// entry points of a node type (HandleCall plus the exported methods) may
// run concurrently once delivery is concurrent, so every node field they
// conflict on needs a common mutex class — or a racefree directive
// explaining why the invocations cannot overlap.
package racefree

import (
	"sync"

	"adhocshare/internal/simnet"
)

// Req is a minimal payload.
type Req struct{ N int }

// SizeBytes implements simnet.Payload.
func (Req) SizeBytes() int { return 8 }

// Node is a simnet participant with one field per scenario.
type Node struct {
	net  *simnet.Network
	addr simnet.Addr

	mu    sync.Mutex
	table map[string]int // write and read share mu: clean

	statMu sync.Mutex
	hits   int // written by a helper with no lock, read under statMu

	count int // written by Reset with no lock, read by HandleCall

	aMu   sync.RWMutex
	bMu   sync.Mutex
	gauge int // written under aMu, read under bMu: no common class

	//adhoclint:racefree(set once in New before Register publishes the node)
	limit int // unguarded but directive-exempt: clean

	seed int // written only by the exempted Init below: clean

	name string // read-only: clean
}

// HandleCall dispatches the node's methods.
func (n *Node) HandleCall(at simnet.VTime, method string, req simnet.Payload) (simnet.Payload, simnet.VTime, error) {
	switch method {
	case "rf.get":
		return Req{N: n.count + n.seed + len(n.name) + n.limit}, at + 1, nil
	case "rf.hits":
		return Req{N: n.readHits()}, at + 1, nil
	case "rf.gauge":
		n.bMu.Lock()
		g := n.gauge
		n.bMu.Unlock()
		return Req{N: g}, at + 1, nil
	case "rf.put":
		r := req.(Req)
		n.mu.Lock()
		n.table["k"] = r.N
		n.mu.Unlock()
		return Req{}, at + 1, nil
	}
	return nil, at, nil
}

// Init seeds the node. The directive removes it from the root set: it
// runs before the node is registered, so it can never overlap a handler.
//
//adhoclint:racefree(runs in the constructor, before Register publishes the node)
func (n *Node) Init() {
	n.seed = 1
}

// Reset writes count with no lock while rf.get reads it.
func (n *Node) Reset() {
	n.count = 0 // want "racefree.Node.count: write by racefree.(*Node).Reset"
}

// Touch reaches the unguarded hits write through an unexported helper:
// the witness chain must name both hops.
func (n *Node) Touch() {
	n.bump()
}

func (n *Node) bump() {
	n.hits++ // want "write via racefree.(*Node).Touch → racefree.(*Node).bump"
}

func (n *Node) readHits() int {
	n.statMu.Lock()
	defer n.statMu.Unlock()
	return n.hits
}

// SetGauge holds a mutex — just not the one rf.gauge reads under.
func (n *Node) SetGauge(v int) {
	n.aMu.Lock()
	n.gauge = v // want "holding racefree.Node.aMu"
	n.aMu.Unlock()
}

// SetTable shares mu with the rf.put handler: clean.
func (n *Node) SetTable(k string, v int) {
	n.mu.Lock()
	n.table[k] = v
	n.mu.Unlock()
}

// SetLimit writes the directive-exempt field unguarded: clean.
func (n *Node) SetLimit(v int) {
	n.limit = v
}

// Name only reads: a field nobody writes never conflicts.
func (n *Node) Name() string {
	return n.name
}

//adhoclint:racefree(floating) // want "misplaced racefree directive"

//adhoclint:racefree // want "needs a parenthesized reason"
