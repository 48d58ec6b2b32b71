package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEfficiency(t *testing.T) {
	p := Prices{Alpha: 1.8, Beta: 0.2, Gamma: 1e-3}
	got := Efficiency(p, 100, 50, 1000, 200)
	want := (1.8*100 + 0.2*50 + 1e-3*1000) / 200
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("efficiency = %v, want %v", got, want)
	}
	if Efficiency(p, 1, 1, 1, 0) != 0 {
		t.Fatal("zero watts should yield zero efficiency")
	}
}

func TestDefaultPrices(t *testing.T) {
	p := DefaultPrices(3e-5)
	if p.Alpha != 1.8 || p.Beta != 0.2 || p.Gamma != 3e-5 {
		t.Fatalf("defaults = %+v", p)
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{2, 4, 6}, 2)
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("normalize = %v", out)
	}
	if z := Normalize([]float64{1}, 0); z[0] != 0 {
		t.Fatal("zero baseline should zero out")
	}
}

func TestMeansAndGeoMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Fatalf("geomean = %v", g)
	}
	if g := GeoMean([]float64{0, -3, 4}); math.Abs(g-4) > 1e-12 {
		t.Fatal("geomean should skip non-positive values")
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	if c.Len() != 4 {
		t.Fatal("len")
	}
	if got := c.At(2); got != 0.75 {
		t.Fatalf("At(2) = %v, want 0.75", got)
	}
	if got := c.At(0); got != 0 {
		t.Fatalf("At(0) = %v", got)
	}
	if got := c.At(5); got != 1 {
		t.Fatalf("At(5) = %v", got)
	}
	if c.Quantile(0) != 1 || c.Quantile(1) != 3 {
		t.Fatal("extreme quantiles")
	}
}

func TestCDFProperties(t *testing.T) {
	f := func(vals []float64) bool {
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		c := NewCDF(clean)
		// Quantile is monotone.
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := c.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		// At is monotone and hits 1 at the max.
		s := append([]float64(nil), clean...)
		sort.Float64s(s)
		return c.At(s[len(s)-1]) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	if Percentile(vals, 0) != 1 || Percentile(vals, 100) != 4 {
		t.Fatal("extremes")
	}
	if got := Percentile(vals, 50); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("p50 = %v", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty")
	}
	// Input must not be mutated.
	if vals[0] != 4 {
		t.Fatal("percentile sorted the caller's slice")
	}
}
