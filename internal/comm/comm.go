// Package comm provides MPI-style communicators and the bucket (ring)
// collective algorithms the paper's parallel algorithms are built on
// (Section V-C3): All-Gather and Reduce-Scatter proceeding in q-1
// steps, each step passing an array of at most w words to a neighbor,
// for a total cost of (q-1)*w — bandwidth-optimal for balanced
// distributions [Chan et al. 2007].
//
// A Comm is a view of a subset of network ranks (a processor-grid
// hyperslice or fiber). Collectives are called collectively: every
// member must invoke the same operation with compatible arguments.
// A Comm keeps no counts of its own: every word goes through the
// network's Send and Recv, which count it per rank (simnet.Traffic),
// so a collective's cost is read off the network.
package comm

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// Comm is a communicator: an ordered group of global network ranks.
// The index of a rank within the group is its communicator rank.
type Comm struct {
	net   *simnet.Network
	ranks []int // global ranks; position = communicator rank
	me    int   // my communicator rank
}

// New builds a communicator over the given global ranks for the caller
// whose global rank is global. ranks must be duplicate-free and
// contain global.
func New(net *simnet.Network, ranks []int, global int) *Comm {
	me := -1
	seen := make(map[int]bool, len(ranks))
	for i, r := range ranks {
		if r < 0 || r >= net.P() {
			panic(fmt.Sprintf("comm: rank %d outside network of %d", r, net.P()))
		}
		if seen[r] {
			panic(fmt.Sprintf("comm: duplicate rank %d", r))
		}
		seen[r] = true
		if r == global {
			me = i
		}
	}
	if me == -1 {
		panic(fmt.Sprintf("comm: global rank %d not in group %v", global, ranks))
	}
	return &Comm{net: net, ranks: append([]int(nil), ranks...), me: me}
}

// Size returns the number of ranks in the communicator (q).
func (c *Comm) Size() int { return len(c.ranks) }

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.me }

// GlobalRank returns the caller's rank in the underlying network.
func (c *Comm) GlobalRank() int { return c.ranks[c.me] }

// Send transmits data to communicator rank dst.
func (c *Comm) Send(dst int, data []float64) {
	c.net.Send(c.ranks[c.me], c.ranks[dst], data)
}

// Recv blocks for a message from communicator rank src.
func (c *Comm) Recv(src int) []float64 {
	return c.net.Recv(c.ranks[src], c.ranks[c.me])
}

// AllGatherV gathers each rank's block onto every rank using the
// bucket (ring) algorithm: in step t, rank i forwards the block it
// holds for position (i-t) mod q to rank i+1. After q-1 steps everyone
// holds all blocks. Each rank sends and receives (total - own) words:
// (q-1)*w for balanced blocks of w words.
//
// Returns the blocks indexed by communicator rank. Block lengths may
// differ across ranks (the "v" variant); they are discovered from the
// received payloads, so no extra size exchange is modeled (in practice
// sizes are known from the data distribution).
func (c *Comm) AllGatherV(mine []float64) [][]float64 {
	span := obs.StartRank(c.ranks[c.me], obs.PhaseAllGather)
	defer span.Stop()
	q := len(c.ranks)
	blocks := make([][]float64, q)
	blocks[c.me] = append([]float64(nil), mine...)
	if q == 1 {
		return blocks
	}
	right := (c.me + 1) % q
	left := (c.me - 1 + q) % q
	for t := 0; t < q-1; t++ {
		sendIdx := (c.me - t + q*len(c.ranks)) % q
		recvIdx := (c.me - t - 1 + q*len(c.ranks)) % q
		c.Send(right, blocks[sendIdx])
		blocks[recvIdx] = c.Recv(left)
	}
	return blocks
}

// AllGatherConcat is AllGatherV followed by concatenation in rank
// order, the layout collective gathers of contiguous partitions want.
func (c *Comm) AllGatherConcat(mine []float64) []float64 {
	blocks := c.AllGatherV(mine)
	var total int
	for _, b := range blocks {
		total += len(b)
	}
	out := make([]float64, 0, total)
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

// ReduceScatterV reduces elementwise across ranks and scatters: chunk j
// of every rank's contribution is summed over all ranks and delivered
// to communicator rank j. contrib must have exactly q chunks whose
// lengths agree across ranks chunk-by-chunk.
//
// Bucket algorithm: chunk j starts at rank j+1 and travels the ring
// rightward, accumulating each rank's contribution, arriving complete
// at rank j after q-1 steps. Each rank sends (total - |own chunk|)
// words: (q-1)*w for balanced chunks of w words.
func (c *Comm) ReduceScatterV(contrib [][]float64) []float64 {
	span := obs.StartRank(c.ranks[c.me], obs.PhaseReduceScatter)
	defer span.Stop()
	q := len(c.ranks)
	if len(contrib) != q {
		panic(fmt.Sprintf("comm: ReduceScatterV got %d chunks for %d ranks", len(contrib), q))
	}
	if q == 1 {
		return append([]float64(nil), contrib[0]...)
	}
	right := (c.me + 1) % q
	left := (c.me - 1 + q) % q
	// Step t: send the running sum of chunk (me-1-t) mod q to the
	// right; receive chunk (me-2-t) mod q from the left and add our
	// contribution.
	buf := append([]float64(nil), contrib[(c.me-1+q)%q]...)
	for t := 0; t < q-1; t++ {
		c.Send(right, buf)
		inIdx := (c.me - 2 - t + 2*q + q*q) % q
		in := c.Recv(left)
		own := contrib[inIdx]
		if len(in) != len(own) {
			panic(fmt.Sprintf("comm: ReduceScatterV chunk %d length mismatch: %d vs %d", inIdx, len(in), len(own)))
		}
		for i := range in {
			in[i] += own[i]
		}
		buf = in
	}
	// After the last step buf holds chunk (me - q) mod q = me, fully
	// accumulated.
	return buf
}

// AllReduce sums x elementwise across all ranks and returns the result
// on every rank, implemented as a Reduce-Scatter of the even partition
// grid.Part followed by an All-Gather (cost 2*(q-1)/q * len(x) words
// each way).
func (c *Comm) AllReduce(x []float64) []float64 {
	span := obs.StartRank(c.ranks[c.me], obs.PhaseAllReduce)
	defer span.Stop()
	q := len(c.ranks)
	if q == 1 {
		return append([]float64(nil), x...)
	}
	chunks := make([][]float64, q)
	for j := 0; j < q; j++ {
		lo, hi := grid.Part(len(x), q, j)
		chunks[j] = x[lo:hi]
	}
	own := c.ReduceScatterV(chunks)
	blocks := c.AllGatherV(own)
	out := make([]float64, 0, len(x))
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

// Barrier synchronizes all ranks with zero-word token passes (no
// bandwidth cost in the model, two ring sweeps).
func (c *Comm) Barrier() {
	q := len(c.ranks)
	if q == 1 {
		return
	}
	right := (c.me + 1) % q
	left := (c.me - 1 + q) % q
	for sweep := 0; sweep < 2; sweep++ {
		c.Send(right, nil)
		c.Recv(left)
	}
}
