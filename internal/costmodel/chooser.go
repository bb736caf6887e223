package costmodel

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/grid"
)

// BestAlg3PowerOfTwo minimizes Alg3Words over all power-of-two
// factorizations of P = 2^exp into N grid extents with P_k <= I_k.
// It returns the best shape and its modeled words.
func (m Model) BestAlg3PowerOfTwo(exp int) ([]float64, float64, error) {
	if shape, w := m.bestPowerOfTwo(exp, 1); shape != nil {
		return shape[1:], w, nil
	}
	return nil, 0, fmt.Errorf("costmodel: no valid N-way grid for P = 2^%d", exp)
}

// BestAlg4PowerOfTwo minimizes Alg4Words over all power-of-two
// factorizations of P = 2^exp into N+1 extents with P0 <= R and
// P_k <= I_k.
func (m Model) BestAlg4PowerOfTwo(exp int) ([]float64, float64, error) {
	if shape, w := m.bestPowerOfTwo(exp, m.R); shape != nil {
		return shape, w, nil
	}
	return nil, 0, fmt.Errorf("costmodel: no valid (N+1)-way grid for P = 2^%d", exp)
}

// bestPowerOfTwo returns the first of the power-of-two (N+1)-way grids
// over P = 2^exp with P0 <= maxP0 and P_k <= I_k that minimizes
// Alg4Words, and its words; nil if there is none. The grids come in
// order of nondecreasing P0, and Alg4Words at P0 = 1 computes
// Alg3Words' floats, so maxP0 = 1 is the Algorithm 3 search.
func (m Model) bestPowerOfTwo(exp int, maxP0 float64) ([]float64, float64) {
	best := math.Inf(1)
	var bestShape []float64
	for _, f := range grid.PowerOfTwoFactorizations(exp, m.N()+1) {
		if float64(f[0]) > maxP0 {
			break
		}
		shape := make([]float64, len(f))
		ok := true
		for i, v := range f {
			shape[i] = float64(v)
			ok = ok && (i == 0 || shape[i] <= m.Dims[i-1])
		}
		if !ok {
			continue
		}
		if w := m.Alg4Words(shape); w < best {
			best, bestShape = w, shape
		}
	}
	return bestShape, best
}

// BestStationaryExact picks the N-way grid over exactly P processors
// minimizing the exact (ceiling-aware) Eq. (14) cost for simulator
// runs. All ordered factorizations of P are tried.
func BestStationaryExact(dims []int, R, P int) ([]int, error) {
	if shape := bestExact(dims, R, P, 1); shape != nil {
		return shape[1:], nil
	}
	return nil, fmt.Errorf("costmodel: no valid stationary grid for P=%d over dims %v", P, dims)
}

// BestGeneralExact picks the (N+1)-way grid (shape[0] = P0 <= R)
// minimizing the exact Eq. (18) cost.
func BestGeneralExact(dims []int, R, P int) ([]int, error) {
	if shape := bestExact(dims, R, P, R); shape != nil {
		return shape, nil
	}
	return nil, fmt.Errorf("costmodel: no valid general grid for P=%d over dims %v, R=%d", P, dims, R)
}

// bestExact returns the first of the (N+1)-way grids over exactly P
// processors with P0 <= maxP0 that dist.NewGeneral accepts and that
// minimizes dist.Layout.MaxSends; nil if there is none, P < 1
// included. The grids come in order of nondecreasing P0, and MaxSends
// at P0 = 1 is Eq. (14), so maxP0 = 1 is the Algorithm 3 search.
func bestExact(dims []int, R, P, maxP0 int) []int {
	if P < 1 {
		return nil
	}
	var bestShape []int
	best := int64(math.MaxInt64)
	for _, shape := range grid.Factorizations(P, len(dims)+1) {
		if shape[0] > maxP0 {
			break
		}
		lay, err := dist.NewGeneral(dims, R, shape)
		if err != nil {
			continue
		}
		if w := lay.MaxSends(); w < best {
			best, bestShape = w, shape
		}
	}
	return bestShape
}
