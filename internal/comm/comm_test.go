package comm

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/simnet"
)

// runGroup executes body on every rank of a fresh network of size p
// and returns the network for stats inspection.
func runGroup(t *testing.T, p int, body func(c *Comm) error) *simnet.Network {
	t.Helper()
	net := simnet.New(p)
	ranks := make([]int, p)
	for i := range ranks {
		ranks[i] = i
	}
	err := net.Run(func(rank int) error {
		return body(New(net, ranks, rank))
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestAllGatherVCorrect(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		p := p
		runGroup(t, p, func(c *Comm) error {
			mine := []float64{float64(c.Rank()) * 10, float64(c.Rank())*10 + 1}
			blocks := c.AllGatherV(mine)
			if len(blocks) != p {
				return fmt.Errorf("got %d blocks", len(blocks))
			}
			for j, b := range blocks {
				want := []float64{float64(j) * 10, float64(j)*10 + 1}
				if len(b) != 2 || b[0] != want[0] || b[1] != want[1] {
					return fmt.Errorf("rank %d block %d = %v", c.Rank(), j, b)
				}
			}
			return nil
		})
	}
}

func TestAllGatherVUnevenBlocks(t *testing.T) {
	runGroup(t, 4, func(c *Comm) error {
		// Rank r contributes r+1 words, value = rank.
		mine := make([]float64, c.Rank()+1)
		for i := range mine {
			mine[i] = float64(c.Rank())
		}
		blocks := c.AllGatherV(mine)
		for j, b := range blocks {
			if len(b) != j+1 {
				return fmt.Errorf("block %d has %d words", j, len(b))
			}
			for _, v := range b {
				if v != float64(j) {
					return fmt.Errorf("block %d contains %v", j, v)
				}
			}
		}
		return nil
	})
}

// The paper's cost claim: bucket All-Gather with balanced blocks of w
// words moves exactly (q-1)*w words out of (and into) each rank.
func TestAllGatherVBucketCost(t *testing.T) {
	const q, w = 5, 12
	net := runGroup(t, q, func(c *Comm) error {
		c.AllGatherV(make([]float64, w))
		return nil
	})
	for r := 0; r < q; r++ {
		s := net.RankStats(r)
		if s.SentWords != (q-1)*w || s.RecvWords != (q-1)*w {
			t.Fatalf("rank %d sent %d recv %d, want %d each", r, s.SentWords, s.RecvWords, (q-1)*w)
		}
		if s.SentMsgs != q-1 {
			t.Fatalf("rank %d sent %d messages, want q-1=%d", r, s.SentMsgs, q-1)
		}
	}
}

func TestAllGatherConcat(t *testing.T) {
	runGroup(t, 3, func(c *Comm) error {
		mine := []float64{float64(c.Rank())}
		got := c.AllGatherConcat(mine)
		if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
			return fmt.Errorf("concat = %v", got)
		}
		return nil
	})
}

func TestReduceScatterVCorrect(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		p := p
		runGroup(t, p, func(c *Comm) error {
			// Every rank contributes chunk j = [j, j+0.5] scaled by
			// (rank+1); chunk j's sum over ranks is j * sum(rank+1).
			contrib := make([][]float64, p)
			scale := float64(c.Rank() + 1)
			for j := range contrib {
				contrib[j] = []float64{float64(j) * scale, (float64(j) + 0.5) * scale}
			}
			got := c.ReduceScatterV(contrib)
			total := float64(p*(p+1)) / 2
			j := float64(c.Rank())
			want0, want1 := j*total, (j+0.5)*total
			if len(got) != 2 || math.Abs(got[0]-want0) > 1e-9 || math.Abs(got[1]-want1) > 1e-9 {
				return fmt.Errorf("rank %d got %v want [%v %v]", c.Rank(), got, want0, want1)
			}
			return nil
		})
	}
}

func TestReduceScatterVBucketCost(t *testing.T) {
	const q, w = 6, 9
	net := runGroup(t, q, func(c *Comm) error {
		contrib := make([][]float64, q)
		for j := range contrib {
			contrib[j] = make([]float64, w)
		}
		c.ReduceScatterV(contrib)
		return nil
	})
	for r := 0; r < q; r++ {
		s := net.RankStats(r)
		if s.SentWords != (q-1)*w || s.RecvWords != (q-1)*w {
			t.Fatalf("rank %d sent %d recv %d, want %d", r, s.SentWords, s.RecvWords, (q-1)*w)
		}
	}
}

func TestReduceScatterVUnevenChunks(t *testing.T) {
	runGroup(t, 3, func(c *Comm) error {
		contrib := [][]float64{
			{1},       // chunk 0: 1 word
			{2, 2},    // chunk 1: 2 words
			{3, 3, 3}, // chunk 2: 3 words
		}
		got := c.ReduceScatterV(contrib)
		wantLen := c.Rank() + 1
		if len(got) != wantLen {
			return fmt.Errorf("rank %d got %d words", c.Rank(), len(got))
		}
		for _, v := range got {
			if v != 3*float64(c.Rank()+1) {
				return fmt.Errorf("rank %d got %v", c.Rank(), got)
			}
		}
		return nil
	})
}

func TestReduceScatterVChunkCountPanics(t *testing.T) {
	net := simnet.New(1)
	c := New(net, []int{0}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.ReduceScatterV([][]float64{{1}, {2}})
}

func TestAllReduce(t *testing.T) {
	for _, p := range []int{1, 2, 4, 5} {
		p := p
		runGroup(t, p, func(c *Comm) error {
			x := []float64{1, 2, 3, 4, 5, 6, 7}
			got := c.AllReduce(x)
			for i, v := range got {
				want := x[i] * float64(p)
				if math.Abs(v-want) > 1e-9 {
					return fmt.Errorf("rank %d element %d: %v want %v", c.Rank(), i, v, want)
				}
			}
			return nil
		})
	}
}

func TestAllReduceMatchesNaiveQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(6)
		n := 1 + rng.Intn(20)
		inputs := make([][]float64, p)
		want := make([]float64, n)
		for r := range inputs {
			inputs[r] = make([]float64, n)
			for i := range inputs[r] {
				inputs[r][i] = rng.Float64()
				want[i] += inputs[r][i]
			}
		}
		net := simnet.New(p)
		ranks := make([]int, p)
		for i := range ranks {
			ranks[i] = i
		}
		var mu sync.Mutex
		ok := true
		err := net.Run(func(rank int) error {
			c := New(net, ranks, rank)
			got := c.AllReduce(inputs[rank])
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					mu.Lock()
					ok = false
					mu.Unlock()
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// AllReduce = Reduce-Scatter + All-Gather: for n divisible by q, each
// rank sends exactly 2*(q-1)*(n/q) words.
func TestAllReduceBucketCost(t *testing.T) {
	const q, n = 4, 32
	net := runGroup(t, q, func(c *Comm) error {
		c.AllReduce(make([]float64, n))
		return nil
	})
	want := int64(2 * (q - 1) * (n / q))
	for r := 0; r < q; r++ {
		if s := net.RankStats(r); s.SentWords != want || s.RecvWords != want {
			t.Fatalf("rank %d sent %d recv %d, want %d", r, s.SentWords, s.RecvWords, want)
		}
	}
}

// Latency proxy: a bucket All-Gather takes exactly q-1 messages per
// rank; AllReduce takes 2(q-1).
func TestCollectiveMessageCounts(t *testing.T) {
	const q = 5
	net := runGroup(t, q, func(c *Comm) error {
		c.AllGatherV([]float64{1})
		c.AllReduce(make([]float64, 10))
		return nil
	})
	for r := 0; r < q; r++ {
		if s := net.RankStats(r); s.SentMsgs != 3*(q-1) {
			t.Fatalf("rank %d sent %d messages, want %d", r, s.SentMsgs, 3*(q-1))
		}
	}
}

func TestBarrierNoWords(t *testing.T) {
	net := runGroup(t, 4, func(c *Comm) error {
		c.Barrier()
		return nil
	})
	if w := net.AllStats().MaxWords(); w != 0 {
		t.Fatalf("barrier moved %d words", w)
	}
}

func TestSubCommunicator(t *testing.T) {
	// Two disjoint groups {0,2} and {1,3} gather independently.
	net := simnet.New(4)
	err := net.Run(func(rank int) error {
		var group []int
		if rank%2 == 0 {
			group = []int{0, 2}
		} else {
			group = []int{1, 3}
		}
		c := New(net, group, rank)
		if c.Size() != 2 {
			return fmt.Errorf("size %d", c.Size())
		}
		blocks := c.AllGatherV([]float64{float64(rank)})
		// Member j of the group contributed its global rank.
		for j, b := range blocks {
			if b[0] != float64(group[j]) {
				return fmt.Errorf("rank %d block %d = %v", rank, j, b)
			}
		}
		if c.GlobalRank() != rank {
			return fmt.Errorf("GlobalRank = %d", c.GlobalRank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewPanics(t *testing.T) {
	net := simnet.New(2)
	for _, f := range []func(){
		func() { New(net, []int{0, 5}, 0) },
		func() { New(net, []int{0, 0}, 0) },
		func() { New(net, []int{0}, 1) },
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
