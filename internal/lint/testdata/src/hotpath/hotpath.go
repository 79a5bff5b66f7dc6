// Package hotpath is the analysistest fixture for the hotpathalloc
// analyzer: seeded allocation-construct violations inside an
// annotated hot path, plus the patterns the engine legitimately uses
// (preallocated appends, coldpath exemptions, suppressions).
package hotpath

import "fmt"

// Pkt stands in for the per-packet state.
type Pkt struct {
	Name string
	Buf  []byte
	vals []int
}

// Sink models an interface-typed consumer.
type Sink interface {
	Write(v any)
}

// Process is the annotated hot-path root.
//
//superfe:hotpath
func Process(p *Pkt, s Sink) {
	_ = fmt.Sprintf("%d", len(p.Buf)) // want `calls fmt\.Sprintf`
	msg := p.Name + "!"               // want `concatenates strings`
	_ = msg
	b := []byte(p.Name) // want `converts string to a byte/rune slice`
	_ = string(p.Buf)   // want `converts \[\]byte/\[\]rune to string`
	_ = b
	m := map[int]int{1: 1} // want `builds a map literal`
	_ = m
	mm := make(map[int]int) // want `makes a map`
	_ = mm
	q := new(int) // want `calls new`
	_ = q
	f := func() int { return len(p.Buf) } // want `creates a closure`
	_ = f
	var local []int
	local = append(local, 1) // want `appends to local, a local declared without capacity`
	_ = local
	ok := make([]int, 0, 8)
	ok = append(ok, 2) // preallocated: fine
	_ = ok
	p.vals = append(p.vals, 3) // append to a field: fine
	s.Write(42)                // want `boxes a int into an interface parameter`
	s.Write(p)                 // pointer into interface: no allocation, fine
	helper(p)
	cold(p)
	suppressed()
}

// helper is reached transitively from Process and scanned too.
func helper(p *Pkt) {
	_ = fmt.Sprint(p.Name) // want `calls fmt\.Sprint`
}

// cold is a declared amortized/slow path: traversal stops here.
//
//superfe:coldpath
func cold(p *Pkt) {
	_ = fmt.Sprintln(p.Name) // allowed: coldpath
}

// suppressed shows a justified, documented exception.
func suppressed() {
	//superfe:alloc-ok fixture: error path, never taken per packet
	_ = fmt.Sprint("x")
}

// notOnHotPath is never reached from a hotpath root.
func notOnHotPath(p *Pkt) {
	_ = fmt.Sprint("fine here") // allowed: not annotated, not reachable
}

// AppendParam appends to a parameter: presizing is the caller's
// responsibility, so this is fine even on the hot path.
//
//superfe:hotpath
func AppendParam(dst []int, x int) []int {
	return append(dst, x)
}

// --- SPSC-ring / columnar-batch shapes (the parallel engine's
// hand-off idioms): indexed writes into pre-sized columns and ring
// slots are allocation-free and must pass; the tempting shortcuts
// (rebuilding a batch, formatting a label per packet) must not.

// Batch models a columnar scratch with pre-sized parallel arrays.
type Batch struct {
	N    int
	Keys []uint64
	Vals []int
}

// Ring models an SPSC slot array with a wake channel.
type Ring struct {
	slots []Batch
	mask  uint64
	tail  uint64
	wake  chan struct{}
}

// AppendRow is the columnar append: indexed writes only, no growth.
//
//superfe:hotpath
func (b *Batch) AppendRow(k uint64, v int) {
	b.Keys[b.N] = k // indexed write into a pre-sized column: fine
	b.Vals[b.N] = v
	b.N++
}

// Push is the ring publish: slot write, counter bump, non-blocking
// wake. None of it allocates.
//
//superfe:hotpath
func (r *Ring) Push(b Batch, s Sink) {
	r.slots[r.tail&r.mask] = b // slot write: fine
	r.tail++
	select {
	case r.wake <- struct{}{}: // non-blocking token send: fine
	default:
	}
	_ = fmt.Sprintf("ring depth %d", r.tail) // want `calls fmt\.Sprintf`
	s.Write(r.tail)                          // want `boxes a uint64 into an interface parameter`
	r.pushSlow()
}

// pushSlow is the park path: amortized, so the closure for the retry
// loop is acceptable there.
//
//superfe:coldpath
func (r *Ring) pushSlow() {
	retry := func() bool { return r.tail&r.mask == 0 } // allowed: coldpath
	for !retry() {
	}
}

// rebatch shows the tempting mistake the columnar design avoids:
// rebuilding the batch's columns per dispatch instead of recycling
// pre-sized ones through the free ring.
//
//superfe:hotpath
func rebatch(n int) Batch {
	var keys []uint64
	keys = append(keys, uint64(n)) // want `appends to keys, a local declared without capacity`
	return Batch{Keys: keys}
}

// --- Reducer emission: the NIC calls reducers through an interface,
// which the traversal cannot follow, so each reducer's emission
// method carries its own annotation. Returning a fresh slice per call
// allocates on every emitted vector; appending to the caller's buffer
// does not.

// Mean stands in for a streaming reducer.
type Mean struct{ sum, n float64 }

// Features is the allocating emission shape.
//
//superfe:hotpath
func (m *Mean) Features() []float64 {
	return []float64{m.sum / m.n} // want `builds a slice literal`
}

// AppendFeatures is the allocation-free emission shape.
//
//superfe:hotpath
func (m *Mean) AppendFeatures(dst []float64) []float64 {
	return append(dst, m.sum/m.n)
}
