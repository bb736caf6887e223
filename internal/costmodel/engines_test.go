package costmodel

import "testing"

func TestFastKernelCostBoundaryVsInterior(t *testing.T) {
	m := CubicalModel(3, 64, 16)
	I := m.I()
	for mode := 0; mode < 3; mode++ {
		c := m.FastKernelCost(mode)
		if c.Flops < 2*I*m.R {
			t.Errorf("mode %d: flops %.0f below the 2IR GEMM floor %.0f", mode, c.Flops, 2*I*m.R)
		}
		if c.Words < I {
			t.Errorf("mode %d: words %.0f below the tensor stream %.0f", mode, c.Words, I)
		}
	}
	// Interior modes pay the slab scratch on top of the boundary cost.
	if b, i := m.FastKernelCost(0), m.FastKernelCost(1); i.Words <= b.Words {
		t.Errorf("interior mode words %.0f should exceed boundary mode words %.0f", i.Words, b.Words)
	}
}

func TestCSFBeatsCOO(t *testing.T) {
	// The CSF fiber tree reads each factor row once per node, the COO
	// loop once per nonzero; with many nonzeros per fiber the tree
	// must model cheaper on both axes.
	m := CubicalModel(3, 256, 16)
	nnz := 1e6
	csf := m.CSFCost(nnz, 0)
	coo := m.COOCost(nnz, 0)
	if csf.Words >= coo.Words {
		t.Errorf("CSF words %.3g not below COO words %.3g", csf.Words, coo.Words)
	}
	if csf.Flops >= coo.Flops {
		t.Errorf("CSF flops %.3g not below COO flops %.3g", csf.Flops, coo.Flops)
	}
}

// TestCSFAllModesBuckets: the all-modes price charges zeroing every
// output bucket and the pairwise merge, 4 words and 1 flop per output
// word per extra bucket, clamped to the root fibers; so at 256^3 R16
// the pass over 10^3 nonzeros, whose 32 buckets of 12288 words dwarf
// its walk, prices above the COO loop's three modes, and the pass over
// 10^6 nonzeros stays far below it.
func TestCSFAllModesBuckets(t *testing.T) {
	m := CubicalModel(3, 256, 16)
	out := 3 * 256 * 16.0
	one, many := m.CSFAllModesCost(1000, 1), m.CSFAllModesCost(1000, 32)
	if d := many.Words - one.Words; d != 4*31*out {
		t.Errorf("32 buckets add %.0f words, want %.0f", d, 4*31*out)
	}
	if d := many.Flops - one.Flops; d != 31*out {
		t.Errorf("32 buckets add %.0f flops, want %.0f", d, 31*out)
	}
	if c := m.CSFAllModesCost(1000, 512); c != m.CSFAllModesCost(1000, 256) {
		t.Errorf("buckets beyond the 256 root fibers still priced: %+v", c)
	}
	coo := func(nnz float64) float64 { return 3 * m.COOCost(nnz, 0).Words }
	if w := many.Words; w <= coo(1000) {
		t.Errorf("csf all-modes at nnz 1000 prices %.3g words, not above coo's %.3g", w, coo(1000))
	}
	if w := m.CSFAllModesCost(1e6, 32).Words; w >= coo(1e6)/2 {
		t.Errorf("csf all-modes at nnz 1e6 prices %.3g words, not below half of coo's %.3g", w, coo(1e6))
	}
}

func TestCSFLevelNodesSaturates(t *testing.T) {
	m := CubicalModel(3, 16, 4)
	// Level 0 has at most I_root = 16 fibers even with 1000 nonzeros.
	if got := m.csfLevelNodes(0, 0, 1000); got != 16 {
		t.Errorf("root level nodes = %.0f, want saturation at 16", got)
	}
	// The leaf level is bounded by nnz.
	if got := m.csfLevelNodes(0, 2, 1000); got != 1000 {
		t.Errorf("leaf level nodes = %.0f, want nnz 1000", got)
	}
	// Sparse regime: nnz below every prefix space.
	if got := m.csfLevelNodes(0, 1, 5); got != 5 {
		t.Errorf("sparse level nodes = %.0f, want 5", got)
	}
}

func TestEngineCostAddScale(t *testing.T) {
	a := EngineCost{Words: 2, Flops: 3}
	b := EngineCost{Words: 5, Flops: 7}
	if s := a.Add(b); s.Words != 7 || s.Flops != 10 {
		t.Errorf("Add = %+v", s)
	}
	if s := a.Scale(2); s.Words != 4 || s.Flops != 6 {
		t.Errorf("Scale = %+v", s)
	}
}
