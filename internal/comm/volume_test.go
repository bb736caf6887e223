package comm

import (
	"testing"

	"repro/internal/costmodel"
)

// The collectives move exactly the traffic the closed forms predict,
// as the network counts it — for non-power-of-two q too, where the
// Bruck generalization carries the doubling All-Gather. Eq. (14)
// counts (q-1)*w sends per rank per slice collective; the naive
// ablation's closed form includes the q length-header words its
// encoded rebroadcast carries.
func TestAllGatherVolumesMatchClosedForms(t *testing.T) {
	const w = 12
	for _, q := range []int{2, 3, 5, 6, 7, 8} {
		rd := runGroup(t, q, func(c *Comm) error {
			c.RDAllGather(make([]float64, w))
			return nil
		}).AllStats()
		naive := runGroup(t, q, func(c *Comm) error {
			c.NaiveAllGatherV(make([]float64, w))
			return nil
		}).AllStats()
		// Bucket-bandwidth closed form: (q-1)*w each way, every rank.
		want := int64(q-1) * w
		for r, s := range rd {
			if s.SentWords != want || s.RecvWords != want {
				t.Fatalf("q=%d rank %d: RD traffic %+v, want %d each way", q, r, s, want)
			}
		}
		// Naive closed form: rank 0 receives (q-1)*w and rebroadcasts the
		// encoded collection of q*w+q words to q-1 peers; everyone else
		// sends w and receives that collection.
		encoded := int64(q*w + q)
		if naive[0].RecvWords != want || naive[0].SentWords != int64(q-1)*encoded {
			t.Fatalf("q=%d root: naive traffic %+v, want recv %d sent %d",
				q, naive[0], want, int64(q-1)*encoded)
		}
		for r := 1; r < q; r++ {
			if naive[r].SentWords != w || naive[r].RecvWords != encoded {
				t.Fatalf("q=%d rank %d: naive traffic %+v, want sent %d recv %d",
					q, r, naive[r], w, encoded)
			}
		}
	}
}

// A full Algorithm 3 exchange round on a grid fiber: per-mode
// All-Gather volumes summed over modes must equal Eq. (14)'s
// Alg3Words. Uses a non-power-of-two grid so the generalized doubling
// path is the one being certified.
func TestFiberAllGatherMatchesEq14(t *testing.T) {
	dims := []float64{12, 12, 12}
	R := 4.0
	shape := []float64{3, 2, 1} // P = 6, non-power-of-two fiber of size 3
	m := costmodel.Model{Dims: dims, R: R}
	want := m.Alg3Words(shape)

	// Balanced distribution: rank volume for mode k's fiber All-Gather
	// is (P/P_k - 1) * I_k*R/P each direction; simulate each mode's
	// fiber as its own group of size q_k = P/P_k gathering blocks of
	// I_k*R/P words.
	P := 6.0
	var got float64
	for k := range dims {
		qk := int(P / shape[k])
		wk := int(dims[k] * R / P)
		tr := runGroup(t, qk, func(c *Comm) error {
			c.RDAllGather(make([]float64, wk))
			return nil
		}).AllStats()
		for r, s := range tr {
			if s != tr[0] {
				t.Fatalf("mode %d rank %d: unbalanced fiber traffic %+v vs %+v", k, r, s, tr[0])
			}
		}
		got += float64(tr[0].SentWords)
	}
	if got != want {
		t.Fatalf("summed fiber All-Gather sends = %v, Eq. (14) = %v", got, want)
	}
}
