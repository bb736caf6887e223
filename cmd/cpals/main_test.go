package main

import (
	"errors"
	"testing"

	"repro/internal/cpals"
	"repro/internal/tensor"
)

// TestErrorLineNamesCommandOnce: the cpals package's errors already
// start with "cpals: " and print once; the command's own errors get the
// prefix.
func TestErrorLineNamesCommandOnce(t *testing.T) {
	_, _, err := cpals.Decompose(tensor.RandomDense(1, 4), cpals.Options{R: 2})
	if err == nil {
		t.Fatal("order-1 tensor: no error")
	}
	for _, c := range []struct {
		err  error
		want string
	}{
		{err, "cpals: tensor order 1"},
		{errors.New("unknown -engine \"x\""), "cpals: unknown -engine \"x\""},
	} {
		if got := errorLine(c.err); got != c.want {
			t.Errorf("errorLine(%q) = %q, want %q", c.err, got, c.want)
		}
	}
}
