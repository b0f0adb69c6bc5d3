package main

import "testing"

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		okay bool
	}{
		{n: 0, okay: false},
		{n: 20, okay: false}, // p75 would leave only 5 beyond
		{n: 39, okay: false},
		{n: 40, p: 75, okay: true}, // exactly 10 beyond p75
		{n: 99, p: 75, okay: true},
		{n: 100, p: 90, okay: true},
		{n: 199, p: 90, okay: true}, // p95 would leave 9 beyond
		{n: 200, p: 95, okay: true},
		{n: 1000, p: 99, okay: true},
		{n: 9999, p: 99, okay: true},
		{n: 10000, p: 99.9, okay: true},
		{n: 1000000, p: 99.9, okay: true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if ok != c.okay || p != c.p {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.okay)
		}
		if ok {
			if beyond := c.n - 1 - rankIndex(c.n, p); beyond < minBeyond {
				t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, p, beyond)
			}
		}
	}
}

func TestSummarizeUsesRawSamples(t *testing.T) {
	// 100 samples 1..100 in reverse order: the tail is p90, the nearest
	// rank 90, with 10 samples above it.
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	s := summarize(xs)
	if s.N != 100 || s.P50 != 50.5 || s.TailP != 90 || s.Tail != 90 || s.Max != 100 {
		t.Fatalf("summarize = %+v", s)
	}
	if s := summarize([]float64{3, 1, 2}); s.P50 != 2 || s.TailP != 0 || s.Tail != 0 {
		t.Fatalf("small sample: %+v", s)
	}
	// Values that are not powers of two come back exactly: no bucketing.
	if s := summarize([]float64{0.3, 0.7, 1.1}); s.P50 != 0.7 || s.Max != 1.1 {
		t.Fatalf("bucketed: %+v", s)
	}
}

func TestMedian(t *testing.T) {
	if m := median(nil); m != 0 {
		t.Errorf("median(nil) = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median = %v", m)
	}
}
