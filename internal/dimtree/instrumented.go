package dimtree

import (
	"fmt"

	"repro/internal/memsim"
	"repro/internal/tensor"
)

// AllModesInstrumented computes the all-modes MTTKRP while accounting
// for the streaming two-level-memory traffic of every contraction on
// the machine: the source streams through a bounded window, the
// dropped factor matrices and the destination stay resident (the
// destination is a random-access accumulation target), and the
// destination is written back once. It errors if any contraction's
// working set (destination + factors + streaming window) exceeds M.
// The result comes from one Engine pass, once the accounting fits.
//
// The measured words equal CommEstimate exactly, turning the analytic
// claim of Section VII ("save both communication") into a counted one.
func AllModesInstrumented(x *tensor.Dense, factors []*tensor.Matrix, mach *memsim.Machine) (*Result, memsim.Counts, error) {
	R, err := tensor.CheckFactors(x, factors, tensor.AllModes)
	if err != nil {
		return nil, memsim.Counts{}, err
	}
	start := mach.Snapshot()
	dims := x.Dims()
	words := func(lo, hi int) int64 {
		w := int64(R)
		for _, d := range dims[lo:hi] {
			w *= int64(d)
		}
		return w
	}
	// contract accounts for the contraction of a srcWords-word source
	// holding modes [plo, phi) down to the kept range [klo, khi).
	contract := func(srcWords int64, plo, phi, klo, khi int) error {
		dst := words(klo, khi)
		var fWords int64
		for k := plo; k < phi; k++ {
			if k < klo || k >= khi {
				fWords += int64(dims[k]) * int64(R)
			}
		}
		if err := mach.Alloc(dst); err != nil {
			return fmt.Errorf("dimtree: destination [%d,%d) does not fit: %w", klo, khi, err)
		}
		if err := mach.Load(fWords); err != nil {
			return fmt.Errorf("dimtree: factors for [%d,%d) do not fit: %w", klo, khi, err)
		}
		// Stream the source one word at a time: window 1 keeps the
		// requirement minimal, and larger windows change nothing in the
		// totals.
		for i := int64(0); i < srcWords; i++ {
			if err := mach.Load(1); err != nil {
				return err
			}
			if err := mach.Evict(1); err != nil {
				return err
			}
		}
		if err := mach.Evict(fWords); err != nil {
			return err
		}
		return mach.Store(dst)
	}
	// split contracts the node holding [lo, hi) (srcWords words) into
	// its two halves and recurses, as Engine.AllModesInto does.
	var split func(srcWords int64, lo, hi int) error
	split = func(srcWords int64, lo, hi int) error {
		mid := lo + (hi-lo)/2
		for _, c := range [2][2]int{{lo, mid}, {mid, hi}} {
			if err := contract(srcWords, lo, hi, c[0], c[1]); err != nil {
				return err
			}
			if c[1]-c[0] > 1 {
				if err := split(words(c[0], c[1]), c[0], c[1]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := split(int64(x.Elems()), 0, len(dims)); err != nil {
		return nil, memsim.Counts{}, err
	}
	end := mach.Snapshot()
	return AllModes(x, factors), memsim.Counts{
		Loads:  end.Loads - start.Loads,
		Stores: end.Stores - start.Stores,
		Peak:   end.Peak,
	}, nil
}
