package plan

// The golden shape sweep: on a canon of dense and sparse shapes
// covering the regimes the engines were built for, the planner's pick
// must (a) match the hand-picked engine an expert would choose for
// that shape, and (b) have a modeled cost within 10% of the best
// modeled cost over every supporting engine — i.e. the planner never
// leaves more than 10% predicted performance on the table. The
// calibration comes from the checked-in fixture (not a live
// measurement), so the sweep is reproducible on any machine and under
// REPRO_NOSIMD.

import (
	"encoding/json"
	"os"
	"testing"
)

func fixtureCal(t *testing.T) *Calibration {
	t.Helper()
	data, err := os.ReadFile("testdata/calibration.json")
	if err != nil {
		t.Fatal(err)
	}
	var c Calibration
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return &c
}

func TestGoldenShapeSweep(t *testing.T) {
	cal := fixtureCal(t)
	cases := []struct {
		name   string
		p      Problem
		engine string
	}{
		{"dense-cubic-64c3-allmodes", Problem{Dims: []int{64, 64, 64}, R: 16, Mode: AllModes}, "tree"},
		{"dense-cubic-128c3-allmodes", Problem{Dims: []int{128, 128, 128}, R: 16, Mode: AllModes}, "tree"},
		{"dense-tiny-16c3-allmodes", Problem{Dims: []int{16, 16, 16}, R: 8, Mode: AllModes}, "fast"},
		{"dense-cubic-64c3-mode0", Problem{Dims: []int{64, 64, 64}, R: 16, Mode: 0}, "fast"},
		{"dense-skewed-long-mode0", Problem{Dims: []int{65536, 16, 16}, R: 16, Mode: 0}, "fast"},
		{"dense-skewed-flat-allmodes", Problem{Dims: []int{8, 8, 65536}, R: 8, Mode: AllModes}, "tree"},
		{"dense-order5-32c5-allmodes", Problem{Dims: []int{32, 32, 32, 32, 32}, R: 16, Mode: AllModes}, "tree"},
		{"dense-order6-8c6-allmodes", Problem{Dims: []int{8, 8, 8, 8, 8, 8}, R: 4, Mode: AllModes}, "tree"},
		{"dense-order2-4096x64-mode0", Problem{Dims: []int{4096, 64}, R: 32, Mode: 0}, "fast"},
		{"dense-f32-64c3-allmodes", Problem{Dims: []int{64, 64, 64}, R: 16, Mode: AllModes, DType: F32}, "fast32"},
		{"dense-f32-128c3-mode1", Problem{Dims: []int{128, 128, 128}, R: 16, Mode: 1, DType: F32}, "fast32"},
		{"sparse-1e5-mode0", Problem{Dims: []int{256, 256, 256}, R: 16, Mode: 0, NNZ: 100_000}, "csf"},
		{"sparse-1e6-allmodes", Problem{Dims: []int{1024, 1024, 1024}, R: 16, Mode: AllModes, NNZ: 1_000_000}, "csf"},
		{"sparse-1e6-iterated", Problem{Dims: []int{512, 512, 512}, R: 16, Mode: AllModes, NNZ: 1_000_000, Reuses: 50}, "csf"},
		{"sparse-tiny-single-pass", Problem{Dims: []int{256, 256, 256}, R: 16, Mode: 1, NNZ: 100}, "coo"},
		{"sparse-f32-1e5-mode0", Problem{Dims: []int{256, 256, 256}, R: 16, Mode: 0, NNZ: 100_000, DType: F32}, "csf"},
	}
	if len(cases) < 12 {
		t.Fatalf("sweep must cover at least 12 canonical shapes, has %d", len(cases))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.p.MaxWorkers = 8
			c, err := Plan(tc.p, cal)
			if err != nil {
				t.Fatal(err)
			}
			if c.Engine != tc.engine {
				t.Errorf("picked %q, hand-picked engine is %q (predicted %+v)", c.Engine, tc.engine, c.Predicted)
			}
			// The pick's modeled cost must be within 10% of the best
			// modeled cost over all supporting engines. The small-shape
			// cutover is the one sanctioned exception: there the model's
			// streaming terms are too coarse and measurement says fast
			// wins, which is exactly why the guard exists.
			if tc.p.forceFast() {
				return
			}
			best := bestModeledSeconds(tc.p, cal)
			if c.Predicted.Seconds > 1.1*best {
				t.Errorf("pick %q predicts %.4gs, > 1.1x the best supporting engine's %.4gs",
					c.Engine, c.Predicted.Seconds, best)
			}
		})
	}
}

// bestModeledSeconds scans every supporting engine and worker count
// for the cheapest prediction — the planner's own search, re-run
// independently as the sweep's oracle.
func bestModeledSeconds(p Problem, cal *Calibration) float64 {
	best := -1.0
	for _, e := range engines {
		if !e.Supports(p) {
			continue
		}
		for w := 1; w <= p.MaxWorkers; w++ {
			if s := e.Cost(p, cal, w).Seconds; best < 0 || s < best {
				best = s
			}
		}
	}
	return best
}

// TestSweepPlansStableAcrossRuns pins the full Choice (engine, workers,
// blocks, chunks) for a few representative shapes, so an accidental
// cost-model change that silently flips plans shows up in review.
func TestSweepPlansStableAcrossRuns(t *testing.T) {
	cal := fixtureCal(t)
	for _, p := range []Problem{
		{Dims: []int{64, 64, 64}, R: 16, Mode: AllModes, MaxWorkers: 8},
		{Dims: []int{256, 256, 256}, R: 16, Mode: 0, NNZ: 100_000, MaxWorkers: 8},
	} {
		a, err := Plan(p, cal)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Plan(p, cal)
		if err != nil {
			t.Fatal(err)
		}
		if a != b { //repro:bitwise plans must be run-to-run stable, floats included
			t.Errorf("plan for %v not stable: %+v vs %+v", p.Dims, a, b)
		}
		if a.CalKey != cal.Key {
			t.Errorf("plan does not carry the calibration key: %q", a.CalKey)
		}
	}
}
