package main

import (
	"fmt"
	"math"

	"superfe/internal/feature"
)

// digest is an order-independent fingerprint of a vector multiset:
// the vector count plus the wrapping sum of one 64-bit hash per
// vector. Each hash covers the key, the timestamp and the exact
// IEEE-754 bits of every value (what a hex-float rendering prints), so
// two multisets agree only when every vector agrees bit for bit,
// whatever order the shards emitted them in. add allocates nothing,
// so it can sit inside a measured window.
type digest struct {
	n   uint64
	sum uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func (d *digest) add(v feature.Vector) {
	t := v.Key.Tuple
	h := uint64(fnvOffset64)
	h = (h ^ uint64(v.Key.Gran)) * fnvPrime64
	h = (h ^ (uint64(t.SrcIP)<<32 | uint64(t.DstIP))) * fnvPrime64
	h = (h ^ (uint64(t.SrcPort)<<24 | uint64(t.DstPort)<<8 | uint64(t.Proto))) * fnvPrime64
	h = (h ^ uint64(v.Timestamp)) * fnvPrime64
	for _, x := range v.Values {
		h = (h ^ math.Float64bits(x)) * fnvPrime64
	}
	d.n++
	d.sum += fmix64(h)
}

// fmix64 is MurmurHash3's finalizer: it spreads every input bit over
// the whole word before the hashes are summed.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (d digest) String() string {
	return fmt.Sprintf("%d vectors, digest %016x", d.n, d.sum)
}
