package plan

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestKeyStable(t *testing.T) {
	if Key() != Key() {
		t.Fatal("Key() is not stable within a process")
	}
	if Key() == "" {
		t.Fatal("empty machine key")
	}
}

func TestMeasureProducesValidCalibration(t *testing.T) {
	c := Measure()
	if err := c.validate(); err != nil {
		t.Fatalf("fresh measurement is invalid: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "cal.json")
	c := Measure()
	if err := c.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if *got != *c { //repro:bitwise the cache round trip must preserve every measured constant exactly
		t.Errorf("round trip changed the calibration:\nsaved  %+v\nloaded %+v", c, got)
	}
}

// TestLoadRejectsCorruptCache: every cache defect must surface as a
// Load error (so LoadOrMeasure silently re-calibrates) — never a
// crash, never a garbage calibration accepted as valid.
func TestLoadRejectsCorruptCache(t *testing.T) {
	dir := t.TempDir()
	good := Measure()
	goodJSON, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}

	stale := *good
	stale.Key = "cpu=some-other-machine"
	staleJSON, _ := json.Marshal(&stale)

	wrongVer := *good
	wrongVer.Version = calibrationVersion + 1
	wrongVerJSON, _ := json.Marshal(&wrongVer)

	negRate := *good
	negRate.FlopsSIMD = -1
	negRateJSON, _ := json.Marshal(&negRate)

	cases := []struct {
		name string
		data []byte
	}{
		{"truncated", goodJSON[:len(goodJSON)/2]},
		{"empty", nil},
		{"not-json", []byte("plain text, not a calibration")},
		{"wrong-cpu-key", staleJSON},
		{"wrong-version", wrongVerJSON},
		{"negative-rate", negRateJSON},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".json")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(path); err == nil {
				t.Fatalf("Load accepted a %s cache", tc.name)
			}
			c := LoadOrMeasure(path)
			if c == nil {
				t.Fatal("LoadOrMeasure returned nil")
			}
			if err := c.validate(); err != nil {
				t.Fatalf("LoadOrMeasure's re-calibration is invalid: %v", err)
			}
			// The silently re-measured calibration must also have been
			// rewritten so the next process gets a cache hit.
			if reread, err := Load(path); err != nil {
				t.Fatalf("cache not repaired after re-calibration: %v", err)
			} else if reread.Key != Key() {
				t.Fatalf("repaired cache has key %q, want %q", reread.Key, Key())
			}
		})
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "does-not-exist.json")); err == nil {
		t.Fatal("Load succeeded on a missing file")
	}
}

func TestLoadOrMeasureCacheHit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cal.json")
	c1 := LoadOrMeasure(path) // miss: measures and writes
	c2 := LoadOrMeasure(path) // hit: must return the cached values
	if *c1 != *c2 {           //repro:bitwise a cache hit must return the stored constants verbatim
		t.Errorf("cache hit returned different constants:\nfirst  %+v\nsecond %+v", c1, c2)
	}
}

func TestDefaultCachePathEnvOverride(t *testing.T) {
	t.Setenv(EnvCachePath, "/some/explicit/cal.json")
	if got := DefaultCachePath(); got != "/some/explicit/cal.json" {
		t.Errorf("DefaultCachePath = %q, want the %s override", got, EnvCachePath)
	}
}

func TestSecondsScaling(t *testing.T) {
	c := Default()
	one := c.Seconds(1e6, 1e6, 1)
	if one <= 0 {
		t.Fatalf("non-positive prediction %g", one)
	}
	// More work costs more time.
	if c.Seconds(2e6, 2e6, 1) <= one {
		t.Error("doubling the work did not increase the prediction")
	}
	// The single-worker time divides by the workers, so on work this
	// large the per-work time shrinks even after the spawn overhead.
	if par := c.Seconds(1e6, 1e6, 4); par >= one {
		t.Errorf("4 workers predicted %g >= 1 worker %g", par, one)
	}
}
