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
	best := math.Inf(1)
	var bestShape []float64
	for _, f := range grid.PowerOfTwoFactorizations(exp, m.N()) {
		shape := make([]float64, m.N())
		ok := true
		for k, v := range f {
			shape[k] = float64(v)
			if shape[k] > m.Dims[k] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if w := m.Alg3Words(shape); w < best {
			best = w
			bestShape = shape
		}
	}
	if bestShape == nil {
		return nil, 0, fmt.Errorf("costmodel: no valid N-way grid for P = 2^%d", exp)
	}
	return bestShape, best, nil
}

// BestAlg4PowerOfTwo minimizes Alg4Words over all power-of-two
// factorizations of P = 2^exp into N+1 extents with P0 <= R and
// P_k <= I_k.
func (m Model) BestAlg4PowerOfTwo(exp int) ([]float64, float64, error) {
	best := math.Inf(1)
	var bestShape []float64
	for _, f := range grid.PowerOfTwoFactorizations(exp, m.N()+1) {
		shape := make([]float64, m.N()+1)
		ok := float64(f[0]) <= m.R
		if ok {
			shape[0] = float64(f[0])
			for k := 0; k < m.N(); k++ {
				shape[k+1] = float64(f[k+1])
				if shape[k+1] > m.Dims[k] {
					ok = false
					break
				}
			}
		}
		if !ok {
			continue
		}
		if w := m.Alg4Words(shape); w < best {
			best = w
			bestShape = shape
		}
	}
	if bestShape == nil {
		return nil, 0, fmt.Errorf("costmodel: no valid (N+1)-way grid for P = 2^%d", exp)
	}
	return bestShape, best, nil
}

// BestStationaryExact picks the N-way grid over exactly P processors
// minimizing the exact (ceiling-aware) Eq. (14) cost for simulator
// runs. All ordered factorizations of P are tried.
func BestStationaryExact(dims []int, R, P int) ([]int, error) {
	var bestShape []int
	best := int64(math.MaxInt64)
	for _, shape := range grid.Factorizations(P, len(dims)) {
		lay, err := dist.NewStationary(dims, R, shape)
		if err != nil {
			continue
		}
		var w int64
		for k := range dims {
			q := int64(P / shape[k])
			w += (q - 1) * lay.MaxFactorNnz(k)
		}
		if w < best {
			best = w
			bestShape = shape
		}
	}
	if bestShape == nil {
		return nil, fmt.Errorf("costmodel: no valid stationary grid for P=%d over dims %v", P, dims)
	}
	return bestShape, nil
}

// BestGeneralExact picks the (N+1)-way grid (shape[0] = P0 <= R)
// minimizing the exact Eq. (18) cost.
func BestGeneralExact(dims []int, R, P int) ([]int, error) {
	var bestShape []int
	best := int64(math.MaxInt64)
	for _, shape := range grid.Factorizations(P, len(dims)+1) {
		lay, err := dist.NewGeneral(dims, R, shape)
		if err != nil {
			continue
		}
		p0 := int64(shape[0])
		w := (p0 - 1) * lay.MaxTensorNnz()
		for k := range dims {
			q := int64(P) / (p0 * int64(shape[k+1]))
			w += (q - 1) * lay.MaxFactorNnz(k)
		}
		if w < best {
			best = w
			bestShape = shape
		}
	}
	if bestShape == nil {
		return nil, fmt.Errorf("costmodel: no valid general grid for P=%d over dims %v, R=%d", P, dims, R)
	}
	return bestShape, nil
}
