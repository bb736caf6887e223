package main

import (
	"errors"
	"testing"

	"repro/internal/tucker"
)

// TestErrorLineNamesCommandOnce: a rejected rank reads "tucker: rank 9
// invalid for mode 0 (extent 8)", as -dims 8,8,8 -ranks 9,2,2 prints it,
// not "tucker: tucker: ..."; the command's own errors get the prefix.
func TestErrorLineNamesCommandOnce(t *testing.T) {
	_, err := tucker.InitFactors([]int{8, 8, 8}, []int{9, 2, 2}, 5)
	if err == nil {
		t.Fatal("rank 9 on extent 8: no error")
	}
	for _, c := range []struct {
		err  error
		want string
	}{
		{err, "tucker: rank 9 invalid for mode 0 (extent 8)"},
		{errors.New("need one rank per mode"), "tucker: need one rank per mode"},
	} {
		if got := errorLine(c.err); got != c.want {
			t.Errorf("errorLine(%q) = %q, want %q", c.err, got, c.want)
		}
	}
}
