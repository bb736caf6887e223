package comm

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/simnet"
)

func TestNaiveAllGatherVCorrect(t *testing.T) {
	for _, p := range []int{1, 2, 5} {
		p := p
		runGroup(t, p, func(c *Comm) error {
			mine := make([]float64, c.Rank()+1)
			for i := range mine {
				mine[i] = float64(c.Rank())
			}
			blocks := c.NaiveAllGatherV(mine)
			for j, b := range blocks {
				if len(b) != j+1 {
					return fmt.Errorf("block %d has %d words", j, len(b))
				}
				for _, v := range b {
					if v != float64(j) {
						return fmt.Errorf("block %d = %v", j, b)
					}
				}
			}
			return nil
		})
	}
}

func TestNaiveReduceScatterVCorrect(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		p := p
		runGroup(t, p, func(c *Comm) error {
			contrib := make([][]float64, p)
			for j := range contrib {
				contrib[j] = []float64{float64(j) * float64(c.Rank()+1), 1}
			}
			got := c.ReduceScatterV(contrib)
			want := c.NaiveReduceScatterV(contrib)
			if len(got) != len(want) {
				return fmt.Errorf("length mismatch")
			}
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					return fmt.Errorf("bucket %v vs naive %v", got, want)
				}
			}
			return nil
		})
	}
}

// The ablation: for balanced blocks, the naive all-gather's root
// sends/receives ~q times more words than any rank under the bucket
// algorithm.
func TestNaiveVsBucketMaxWords(t *testing.T) {
	const q, w = 8, 32

	bucket := simnet.New(q)
	ranks := make([]int, q)
	for i := range ranks {
		ranks[i] = i
	}
	err := bucket.Run(func(rank int) error {
		New(bucket, ranks, rank).AllGatherV(make([]float64, w))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	naive := simnet.New(q)
	err = naive.Run(func(rank int) error {
		New(naive, ranks, rank).NaiveAllGatherV(make([]float64, w))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	nw, bw := naive.AllStats().MaxWords(), bucket.AllStats().MaxWords()
	if nw < 3*bw {
		t.Fatalf("naive root (%d words) should be several times worse than bucket (%d words)", nw, bw)
	}
	// And the bucket cost is exactly 2*(q-1)*w per rank.
	if bw != 2*(q-1)*w {
		t.Fatalf("bucket max words %d, want %d", bw, 2*(q-1)*w)
	}
}

func TestNaiveChunkCountPanics(t *testing.T) {
	net := simnet.New(1)
	c := New(net, []int{0}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.NaiveReduceScatterV([][]float64{{1}, {2}})
}

func TestDecodeBlocksPanicsOnTruncation(t *testing.T) {
	for _, payload := range [][]float64{
		{},
		{5, 1, 2}, // claims 5 words, has 2
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			decodeBlocks(payload, 2)
		}()
	}
}
