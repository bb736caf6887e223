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
	// Each contraction of the walk allocates its destination, loads
	// the dropped factors and streams its source.
	err = walk(0, 0, len(dims), func(depth, lo, hi, klo, khi int) error {
		src, fWords, dst := streamWords(dims, R, depth, lo, hi, klo, khi)
		if err := mach.Alloc(dst); err != nil {
			return fmt.Errorf("dimtree: destination [%d,%d) does not fit: %w", klo, khi, err)
		}
		if err := mach.Load(fWords); err != nil {
			return fmt.Errorf("dimtree: factors for [%d,%d) do not fit: %w", klo, khi, err)
		}
		// Stream the source one word at a time: window 1 keeps the
		// requirement minimal, and larger windows change nothing in the
		// totals.
		for i := int64(0); i < src; i++ {
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
	})
	if err != nil {
		return nil, memsim.Counts{}, err
	}
	end := mach.Snapshot()
	return AllModes(x, factors), memsim.Counts{
		Loads:  end.Loads - start.Loads,
		Stores: end.Stores - start.Stores,
		Peak:   end.Peak,
	}, nil
}
