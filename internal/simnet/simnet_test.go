package simnet

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestSendRecvMovesData(t *testing.T) {
	n := New(2)
	err := n.Run(func(rank int) error {
		if rank == 0 {
			n.Send(0, 1, []float64{1, 2, 3})
			return nil
		}
		got := n.Recv(0, 1)
		if len(got) != 3 || got[0] != 1 || got[2] != 3 {
			return fmt.Errorf("got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := n.RankStats(0); s.SentWords != 3 || s.SentMsgs != 1 || s.RecvWords != 0 {
		t.Fatalf("rank0 stats %+v", s)
	}
	if s := n.RankStats(1); s.RecvWords != 3 || s.RecvMsgs != 1 || s.SentWords != 0 {
		t.Fatalf("rank1 stats %+v", s)
	}
	if tr := n.AllStats(); tr.MaxWords() != 3 || tr.TotalSent() != 3 || tr.MaxSent() != 3 || tr.MaxMsgs() != 1 {
		t.Fatalf("max=%d total=%d max sent=%d max msgs=%d", tr.MaxWords(), tr.TotalSent(), tr.MaxSent(), tr.MaxMsgs())
	}
}

func TestSendCopiesPayload(t *testing.T) {
	n := New(2)
	err := n.Run(func(rank int) error {
		if rank == 0 {
			buf := []float64{42}
			n.Send(0, 1, buf)
			buf[0] = -1 // mutate after send; receiver must see 42
			return nil
		}
		if got := n.Recv(0, 1); got[0] != 42 {
			return fmt.Errorf("payload aliased: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOOrdering(t *testing.T) {
	n := New(2)
	err := n.Run(func(rank int) error {
		if rank == 0 {
			for i := 0; i < 5; i++ {
				n.Send(0, 1, []float64{float64(i)})
			}
			return nil
		}
		for i := 0; i < 5; i++ {
			if got := n.Recv(0, 1); got[0] != float64(i) {
				return fmt.Errorf("out of order: want %d got %v", i, got[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesError(t *testing.T) {
	n := New(3)
	err := n.Run(func(rank int) error {
		if rank == 1 {
			return fmt.Errorf("rank 1 failed")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	n := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	_ = n.Run(func(rank int) error {
		if rank == 0 {
			panic("boom")
		}
		// Rank 1 blocks on a message rank 0 never sends; the closed
		// channel must unblock it rather than deadlock the test.
		n.Recv(0, 1)
		return nil
	})
}

func TestRingExchangeCounts(t *testing.T) {
	// Every rank sends w words right and receives w from the left:
	// per-rank words = 2w, total sends = P*w.
	const P, w = 4, 10
	n := New(P)
	err := n.Run(func(rank int) error {
		payload := make([]float64, w)
		n.Send(rank, (rank+1)%P, payload)
		n.Recv((rank+P-1)%P, rank)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < P; r++ {
		if s := n.RankStats(r); s.Words() != 2*w {
			t.Fatalf("rank %d words = %d, want %d", r, s.Words(), 2*w)
		}
	}
	tr := n.AllStats()
	if tr.TotalSent() != P*w {
		t.Fatalf("total = %d", tr.TotalSent())
	}
	if len(tr) != P {
		t.Fatal("AllStats length")
	}
}

func TestInvalidUses(t *testing.T) {
	n := New(2)
	for _, f := range []func(){
		func() { n.Send(0, 0, nil) },
		func() { n.Recv(1, 1) },
		func() { n.Send(2, 0, nil) },
		func() { n.Recv(0, 5) },
		func() { n.RankStats(9) },
		func() { New(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Stress: many rounds of randomized pairwise exchanges with exact
// word-count bookkeeping. Every rank goroutine also counts its words
// into one obs collector, whose 3 slabs the 8 ranks share, and whose
// totals must equal the network's.
func TestManyRoundExchangeStress(t *testing.T) {
	const P, rounds = 8, 40
	col := obs.New(3)
	obs.Enable(col)
	defer obs.Disable()
	n := New(P)
	err := n.Run(func(rank int) error {
		for round := 0; round < rounds; round++ {
			// Symmetric pairing: XOR with a nonzero round mask, so if
			// p is q's partner then q is p's.
			partner := rank ^ (1 + round%(P-1))
			size := 1 + (rank+round)%5
			if rank < partner {
				n.Send(rank, partner, make([]float64, size))
				n.Recv(partner, rank)
			} else {
				n.Recv(partner, rank)
				n.Send(rank, partner, make([]float64, size))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Global conservation: total sent == total received.
	var sent, recv int64
	for _, s := range n.AllStats() {
		sent += s.SentWords
		recv += s.RecvWords
	}
	if sent != recv || sent == 0 {
		t.Fatalf("sent %d != received %d", sent, recv)
	}
	if tot := col.Totals(); tot.CommSent != sent || tot.CommRecv != recv {
		t.Fatalf("collector sent %d received %d, network %d and %d", tot.CommSent, tot.CommRecv, sent, recv)
	}
}

func TestSingleRankNetwork(t *testing.T) {
	n := New(1)
	if err := n.Run(func(rank int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if n.AllStats().MaxWords() != 0 {
		t.Fatal("no traffic expected")
	}
}
