package experiment

import (
	"fmt"
	"slices"
	"testing"
)

// TestDecimalLabels: a row label is the shortest decimal that parses
// back to its value, with one decimal place at least, so loads that
// %.1f would merge (0.2 and 0.25) or round (0.35) keep their own label
// and the default labels keep their bytes.
func TestDecimalLabels(t *testing.T) {
	in := []float64{0.1, 0.2, 0.25, 0.3, 0.35, 0.5, 0.7, 0.9, 1, 0, 0.125, 1e-7}
	want := []string{"0.1", "0.2", "0.25", "0.3", "0.35", "0.5", "0.7", "0.9", "1.0", "0.0", "0.125", "0.0000001"}
	if got := decimalLabels(in); !slices.Equal(got, want) {
		t.Errorf("decimalLabels(%v) = %q, want %q", in, got, want)
	}
	for _, v := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		if got, old := decimalLabels([]float64{v})[0], fmt.Sprintf("%.1f", v); got != old {
			t.Errorf("default label %v = %q, was %q", v, got, old)
		}
	}
}
