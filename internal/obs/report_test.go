package obs

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// goldenReport is a fully deterministic report: counters and phase
// times are pinned, so the emitted JSON must match the checked-in
// fixture byte-for-byte (MarshalIndent sorts map keys).
func goldenReport() *Report {
	rep := NewReport("mttkrp", "blocked", []int{32, 32, 32}, 16, 0, Machine{M: 256})
	rep.Counters = Totals{
		WordsRead:    88064,
		WordsWritten: 18432,
		Flops:        2097152,
	}
	rep.MeasuredWords = 106496
	rep.Phases = []PhaseStat{{Phase: "seq", Count: 1, Nanos: 1500000}}
	rep.JoinSeqBounds(256)
	rep.WallNs = 2000000
	return rep
}

func TestReportGoldenJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report_golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden fixture: %v (regenerate by writing the got bytes)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("report JSON drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, buf.Bytes(), want)
	}
}

// TestEmit: the human form goes to w when asked, the JSON to w for
// "-" and to the named file otherwise, byte for byte WriteJSON's; a
// file that cannot be written is an error.
func TestEmit(t *testing.T) {
	rep := goldenReport()
	var human, js bytes.Buffer
	rep.Format(&human)
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	for _, c := range []struct {
		human      bool
		path, want string
	}{
		{false, "", ""},
		{true, "", human.String()},
		{false, "-", js.String()},
		{true, "-", human.String() + js.String()},
		{true, path, human.String()},
	} {
		var w bytes.Buffer
		if err := rep.Emit(&w, c.human, c.path); err != nil {
			t.Fatal(err)
		}
		if w.String() != c.want {
			t.Fatalf("human %v path %q: wrote %q, want %q", c.human, c.path, w.String(), c.want)
		}
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, js.Bytes()) {
		t.Fatalf("file holds %q (err %v), want WriteJSON's bytes", got, err)
	}
	if err := rep.Emit(io.Discard, false, filepath.Join(path, "not-a-dir.json")); err == nil {
		t.Fatal("writing under a regular file should return an error")
	}
}

func TestJoinBoundRatioSemantics(t *testing.T) {
	rep := NewReport("x", "a", []int{8, 8}, 4, 0, Machine{})
	rep.MeasuredWords = 100

	rep.JoinBound("positive", 50)
	if r := rep.Ratio("positive"); r != 2 {
		t.Fatalf("ratio = %v, want 2", r)
	}
	// Vacuous bounds are recorded but produce no ratio.
	rep.JoinBound("negative", -10)
	rep.JoinBound("zero", 0)
	rep.JoinBound("nan", math.NaN())
	for _, name := range []string{"negative", "zero", "nan"} {
		if _, ok := rep.Bounds[name]; !ok {
			t.Fatalf("bound %q not recorded", name)
		}
		if r := rep.Ratio(name); r != 0 {
			t.Fatalf("ratio for vacuous bound %q = %v, want 0", name, r)
		}
	}
}

func TestJoinSeqBoundsUsesProblem(t *testing.T) {
	rep := NewReport("x", "blocked", []int{32, 32, 32}, 16, 0, Machine{M: 256})
	rep.MeasuredWords = 106496
	rep.JoinSeqBounds(256)
	for _, name := range []string{"seq-memdep-thm4.1", "seq-trivial-fact4.1", "seq-best"} {
		if _, ok := rep.Bounds[name]; !ok {
			t.Fatalf("missing bound %q: %v", name, rep.Bounds)
		}
	}
	// At these parameters Thm 4.1 is non-vacuous and below the trivial
	// bound, so seq-best equals the trivial bound.
	if rep.Bounds["seq-memdep-thm4.1"] <= 0 {
		t.Fatalf("Thm 4.1 bound %v should be positive at M=256", rep.Bounds["seq-memdep-thm4.1"])
	}
	if rep.Bounds["seq-best"] < rep.Bounds["seq-memdep-thm4.1"] ||
		rep.Bounds["seq-best"] < rep.Bounds["seq-trivial-fact4.1"] {
		t.Fatalf("seq-best %v not the max of its parts", rep.Bounds["seq-best"])
	}
}

func TestJoinParBoundsCubical(t *testing.T) {
	rep := NewReport("x", "stationary", []int{16, 16, 16}, 8, 1, Machine{P: 8})
	rep.MeasuredWords = 288
	rep.JoinParBounds(8, 0, 1)
	if _, ok := rep.Bounds["par-cubical-cor4.2"]; ok {
		t.Fatal("joined Corollary 4.2's constant-free expression as a bound")
	}
	// A run of 15 MTTKRPs joins 15 times every single-MTTKRP bound.
	run := NewReport("x", "parallel", []int{16, 16, 16}, 8, -1, Machine{P: 8})
	run.MeasuredWords = 15 * 288
	run.JoinParBounds(8, 0, 15)
	for name, b := range rep.Bounds {
		if run.Bounds[name] != 15*b { //repro:bitwise exact scaling by an integer count
			t.Fatalf("%s over 15 MTTKRPs = %v, want 15 x %v", name, run.Bounds[name], b)
		}
		if r, ok := rep.Ratios["measured/"+name]; ok && math.Abs(run.Ratios["measured/"+name]-r) > 1e-12*r {
			t.Fatalf("%s ratio %v over 15 MTTKRPs, %v for one", name, run.Ratios["measured/"+name], r)
		}
	}
	rect := NewReport("x", "stationary", []int{16, 8, 4}, 8, 1, Machine{P: 8})
	rect.MeasuredWords = 288
	rect.JoinParBounds(8, 0, 1)
	if _, ok := rect.Bounds["par-memdep-cor4.1"]; ok {
		t.Fatal("M=0 joined the memory-dependent parallel bound")
	}
	rectM := NewReport("x", "stationary", []int{16, 8, 4}, 8, 1, Machine{P: 8, M: 128})
	rectM.JoinParBounds(8, 128, 1)
	if _, ok := rectM.Bounds["par-memdep-cor4.1"]; !ok {
		t.Fatal("M>0 missing the Cor 4.1 bound")
	}
}

// TestPlanInfoSerialization: a planned run's report carries the plan
// block; an unplanned run's report omits it entirely (the golden
// fixture above guards the omission byte-for-byte).
func TestPlanInfoSerialization(t *testing.T) {
	rep := goldenReport()
	rep.Plan = &PlanInfo{
		Engine: "tree", Workers: 4, GemmKC: 256, GemmMC: 128,
		PredictedWords: 1.5e6, PredictedSeconds: 0.002, CalibrationKey: "k",
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"plan"`, `"engine": "tree"`, `"gemm_kc": 256`, `"predicted_words"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("plan JSON missing %s:\n%s", want, buf.Bytes())
		}
	}
	var text bytes.Buffer
	rep.Format(&text)
	if !bytes.Contains(text.Bytes(), []byte("plan: engine=tree workers=4")) {
		t.Errorf("Format missing the plan line:\n%s", text.Bytes())
	}
}
