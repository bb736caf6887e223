package seq

import (
	"fmt"

	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Result bundles the output of an instrumented sequential MTTKRP with
// its communication counts and arithmetic cost.
type Result struct {
	B      *tensor.Matrix
	Counts memsim.Counts
	Flops  int64
}

// Unblocked runs Algorithm 1 (Sequential Unblocked MTTKRP) on the
// machine, counting every load and store exactly as in the pseudocode:
// one load per tensor entry, and per (entry, r) a load of each of the
// N-1 factor entries, a load of the output entry, and a store of the
// output entry. Its communication cost is W <= I + I*R*(N+1).
//
// It requires fast memory capacity M >= N+1 (one tensor entry, N-1
// factor entries, and one output entry resident at once).
func Unblocked(x *tensor.Dense, factors []*tensor.Matrix, n int, mach *memsim.Machine) (*Result, error) {
	R, err := tensor.CheckFactors(x, factors, n)
	if err != nil {
		return nil, err
	}
	N := x.Order()
	if mach.Capacity() < int64(N)+1 {
		return nil, fmt.Errorf("seq: unblocked needs M >= N+1 = %d, have %d", N+1, mach.Capacity())
	}
	span := obs.Start(obs.PhaseSeq)
	defer span.Stop()
	b := tensor.NewMatrix(x.Dim(n), R)
	start := mach.Snapshot()

	dims := x.Dims()
	idx := make([]int, N)
	data := x.Data()
	for off := 0; off < len(data); off++ {
		if err := mach.Load(1); err != nil { // X(i1,...,iN)
			return nil, err
		}
		v := data[off]
		in := idx[n]
		for r := 0; r < R; r++ {
			if err := mach.Load(int64(N) - 1); err != nil { // A(k)(ik, r), k != n
				return nil, err
			}
			if err := mach.Load(1); err != nil { // B(n)(in, r)
				return nil, err
			}
			p := v // atomic N-ary multiply
			for k, f := range factors {
				if k == n {
					continue
				}
				p *= f.At(idx[k], r)
			}
			b.AddAt(in, r, p)
			if err := mach.Store(1); err != nil { // B(n)(in, r)
				return nil, err
			}
			if err := mach.Evict(int64(N) - 1); err != nil { // drop factor entries
				return nil, err
			}
		}
		if err := mach.Evict(1); err != nil { // drop X entry
			return nil, err
		}
		incIndex(idx, dims)
	}
	end := mach.Snapshot()
	return &Result{
		B:      b,
		Counts: diff(start, end),
		Flops:  RefFlops(x, R),
	}, nil
}

func diff(start, end memsim.Counts) memsim.Counts {
	return memsim.Counts{
		Loads:  end.Loads - start.Loads,
		Stores: end.Stores - start.Stores,
		Peak:   end.Peak,
	}
}
