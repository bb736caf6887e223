// Package simnet simulates the paper's distributed-memory parallel
// machine (Section II-C): P processors, each with a private local
// memory, connected by a network over which they exchange individual
// values. Communication cost is the number of words sent and received
// per processor (bandwidth cost); latency is not modeled, matching the
// paper's focus.
//
// Each processor runs as a goroutine. Point-to-point channels carry
// float64 payloads. Data actually moves — algorithms built on simnet
// compute real results, so correctness and communication cost are
// verified together.
//
// The network is the one ledger of the simulated machine's traffic.
// Send and Recv count words and messages per rank, report the words
// to the active obs collector on the rank's slab and the messages to
// the flight recorder. Every collective and driver above them (package
// comm, the par, sparse, cpals and tucker drivers) reads its counts
// from here; the par, sparse and tucker results embed a Traffic.
package simnet

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// Network connects P ranks with buffered point-to-point channels and
// per-rank traffic counters.
type Network struct {
	p     int
	chans [][]chan []float64 // chans[src][dst]
	stats Traffic            // owned by rank goroutines during Run

	// sendSeq[src*p+dst] / recvSeq[src*p+dst] count messages per
	// directed channel; because only src's goroutine sends on (src,
	// dst) and only dst's receives, plain increments are race-free
	// (same ownership argument as stats). Channels are FIFO, so the
	// n-th send on a pair is the n-th receive — the sequence number
	// that keys a flight-recorder Send to its Recv as one flow.
	sendSeq []int64
	recvSeq []int64
}

// Stats counts one rank's traffic.
type Stats struct {
	SentWords int64
	RecvWords int64
	SentMsgs  int64
	RecvMsgs  int64
}

// Words returns sends plus receives, the per-processor quantity the
// paper's lower bounds constrain.
func (s Stats) Words() int64 { return s.SentWords + s.RecvWords }

// Traffic is every rank's counters, indexed by rank: a run's
// communication record, which the parallel drivers' results embed.
type Traffic []Stats

// MaxWords returns the maximum over ranks of words sent plus received,
// the per-processor quantity bounded below by Theorems 4.2/4.3.
func (t Traffic) MaxWords() int64 {
	var m int64
	for _, s := range t {
		m = max(m, s.Words())
	}
	return m
}

// MaxSent returns the maximum over ranks of words sent — the quantity
// the algorithm analyses (Eqs. 14 and 18) bound via (q-1)*w bucket
// collective costs.
func (t Traffic) MaxSent() int64 {
	var m int64
	for _, s := range t {
		m = max(m, s.SentWords)
	}
	return m
}

// TotalSent returns the total words sent across all ranks; every word
// sent is received once, so it is also the total received.
func (t Traffic) TotalSent() int64 {
	var n int64
	for _, s := range t {
		n += s.SentWords
	}
	return n
}

// MaxMsgs returns the maximum over ranks of messages sent plus
// received — the latency proxy the paper explicitly does not optimize
// ("we focus on the amount of data communicated and ignore the number
// of messages"), reported for completeness. Bucket collectives cost
// q-1 messages each.
func (t Traffic) MaxMsgs() int64 {
	var m int64
	for _, s := range t {
		m = max(m, s.SentMsgs+s.RecvMsgs)
	}
	return m
}

// New creates a network with p ranks. Channel buffers hold up to cap
// in-flight messages per (src, dst) pair; the ring collectives in
// package comm need only 1, but a little slack keeps ad-hoc
// point-to-point patterns from serializing.
func New(p int) *Network {
	if p < 1 {
		panic(fmt.Sprintf("simnet: need at least 1 rank, got %d", p))
	}
	n := &Network{
		p:       p,
		chans:   make([][]chan []float64, p),
		stats:   make(Traffic, p),
		sendSeq: make([]int64, p*p),
		recvSeq: make([]int64, p*p),
	}
	for i := range n.chans {
		n.chans[i] = make([]chan []float64, p)
		for j := range n.chans[i] {
			if i != j {
				n.chans[i][j] = make(chan []float64, 8)
			}
		}
	}
	return n
}

// P returns the number of ranks.
func (n *Network) P() int { return n.p }

// Send transmits data from rank src to rank dst. The payload is copied,
// so the caller may reuse its buffer. Self-sends are forbidden (local
// data movement is free in the model and needs no channel).
func (n *Network) Send(src, dst int, data []float64) {
	n.checkRank(src)
	n.checkRank(dst)
	if src == dst {
		panic(fmt.Sprintf("simnet: rank %d sending to itself", src))
	}
	buf := make([]float64, len(data))
	copy(buf, data)
	n.stats[src].SentWords += int64(len(data))
	n.stats[src].SentMsgs++
	seq := n.sendSeq[src*n.p+dst]
	n.sendSeq[src*n.p+dst]++
	flight.Rec().Send(src, dst, int64(len(data)), seq)
	obs.Comm(src, int64(len(data)), 0)
	n.chans[src][dst] <- buf
}

// Recv blocks until a message from src arrives at dst and returns it.
func (n *Network) Recv(src, dst int) []float64 {
	n.checkRank(src)
	n.checkRank(dst)
	if src == dst {
		panic(fmt.Sprintf("simnet: rank %d receiving from itself", dst))
	}
	data := <-n.chans[src][dst]
	n.stats[dst].RecvWords += int64(len(data))
	n.stats[dst].RecvMsgs++
	seq := n.recvSeq[src*n.p+dst]
	n.recvSeq[src*n.p+dst]++
	flight.Rec().Recv(src, dst, int64(len(data)), seq)
	obs.Comm(dst, 0, int64(len(data)))
	return data
}

func (n *Network) checkRank(r int) {
	if r < 0 || r >= n.p {
		panic(fmt.Sprintf("simnet: rank %d out of [0,%d)", r, n.p))
	}
}

// RankStats returns rank r's counters. Call only when rank goroutines
// are quiescent (before Run or after it returns).
func (n *Network) RankStats(r int) Stats {
	n.checkRank(r)
	return n.stats[r]
}

// AllStats returns a copy of every rank's counters. Call only when
// rank goroutines are quiescent.
func (n *Network) AllStats() Traffic {
	out := make(Traffic, n.p)
	copy(out, n.stats)
	return out
}

// Run spawns one goroutine per rank executing body(rank) and waits for
// all of them. The first error (by rank order) is returned. A panic in
// any rank is re-panicked in the caller after all ranks finish or
// deadlock is avoided by the panic's unwinding.
func (n *Network) Run(body func(rank int) error) error {
	errs := make([]error, n.p)
	panics := make([]any, n.p)
	var wg sync.WaitGroup
	wg.Add(n.p)
	for r := 0; r < n.p; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[rank] = p
					// Unblock peers waiting on this rank: receivers on a
					// closed channel get an empty payload immediately
					// instead of deadlocking the whole run.
					for dst, ch := range n.chans[rank] {
						if dst != rank {
							close(ch)
						}
					}
				}
			}()
			errs[rank] = body(rank)
		}(r)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
