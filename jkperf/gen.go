package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand/v2"
)

// Every input the program receives comes from a generator seeded by
// --seed and a stream number (one stream per load thread). Each workload
// draws op kinds from a fixed quota block that the generator shuffles, so
// the mix is exact over every block while the order, sizes and payloads
// change with the seed.

func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// op is one generated operation. Fields not used by a kind stay zero.
type op struct {
	kind  uint8
	shape uint8 // argument shape / route / payload class
	n     int   // burst length, window size or body size
	a, b  int64 // scalar arguments or pool indices
	calls []call
}

// call is one call of a batched window.
type call struct {
	kind uint8
	idx  int
}

// gen yields the op stream of one workload and stream.
type gen struct {
	rng   *rand.Rand
	block []uint8 // quota block: one entry per slot, shuffled on refill
	quota []uint8 // the unshuffled block
	pos   int
	next  func(g *gen, kind uint8) op
	calls []call // reused window buffer
}

func newGen(quota []uint8, seed, stream uint64, next func(g *gen, kind uint8) op) *gen {
	return &gen{rng: newRNG(seed, stream), quota: quota, block: make([]uint8, len(quota)), pos: len(quota), next: next}
}

// op returns the next operation.
func (g *gen) op() op {
	if g.pos == len(g.block) {
		copy(g.block, g.quota)
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
		g.pos = 0
	}
	k := g.block[g.pos]
	g.pos++
	return g.next(g, k)
}

// quotaBlock expands kind counts into one block.
func quotaBlock(counts ...int) []uint8 {
	var out []uint8
	for k, c := range counts {
		for i := 0; i < c; i++ {
			out = append(out, uint8(k))
		}
	}
	return out
}

// logUniform draws an integer in [lo, hi] whose logarithm is uniform.
func logUniform(r *rand.Rand, lo, hi int) int {
	x := math.Exp(math.Log(float64(lo)) + r.Float64()*(math.Log(float64(hi))-math.Log(float64(lo))))
	return min(hi, max(lo, int(x)))
}

// payload fills n bytes from r.
func payload(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.Uint64())
	}
	for i := n &^ 7; i < n; i++ {
		b[i] = byte(r.Uint32())
	}
	return b
}

// hashOps digests the first n ops of g: the determinism check of the
// seeded generators.
func hashOps(g *gen, n int) uint64 {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		hashOp(h, g.op())
	}
	return h.Sum64()
}

func hashOp(h hash.Hash64, o op) {
	var buf [33]byte
	buf[0] = o.kind
	binary.LittleEndian.PutUint64(buf[1:], uint64(o.shape))
	binary.LittleEndian.PutUint64(buf[9:], uint64(o.n))
	binary.LittleEndian.PutUint64(buf[17:], uint64(o.a))
	binary.LittleEndian.PutUint64(buf[25:], uint64(o.b))
	h.Write(buf[:])
	for _, c := range o.calls {
		h.Write([]byte{c.kind, byte(c.idx), byte(c.idx >> 8)})
	}
}
