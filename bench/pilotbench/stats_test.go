package main

import (
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending, so sorting is exercised
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64 // 0 = must fail
	}{
		{100, 0.9, 90},
		{119, 0.9, 108},
		{99, 0.9, 0},
		{20, 0.5, 10},
		{19, 0.5, 0},
		{10, 0.5, 0},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		switch {
		case tc.want == 0 && err == nil:
			t.Errorf("p%v of %d samples = %v, want an error (fewer than %d beyond)", tc.q*100, tc.n, got, minTail)
		case tc.want != 0 && err != nil:
			t.Errorf("p%v of %d samples: %v", tc.q*100, tc.n, err)
		case got != tc.want:
			t.Errorf("p%v of %d samples = %v, want %v", tc.q*100, tc.n, got, tc.want)
		}
	}
	if _, err := percentile(seq(200), 1); err == nil {
		t.Error("p100 accepted")
	}
}

// The expected values are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2, 7, 7, 4.5}, [3]float64{2, 4.5, 7}},
		{[]float64{5, 5, 5}, [3]float64{5, 5, 5}},
	} {
		q1, med, q3, err := quartiles(tc.data)
		if err != nil || [3]float64{q1, med, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v, %v, %v, %v; want %v", tc.data, q1, med, q3, err, tc.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample accepted")
	}
	if s, err := relSpread(seq(10)); err != nil || s != 1 {
		t.Errorf("relSpread(1..10) = %v, %v; want (8.25-2.75)/5.5 = 1", s, err)
	}
}
