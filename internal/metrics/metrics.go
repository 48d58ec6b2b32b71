// Package metrics provides the evaluation arithmetic shared by the
// experiments: weighted performance-per-watt efficiency (Algorithm 1
// line 4), normalization helpers, and empirical CDFs (Figure 18).
package metrics

import (
	"math"
	"sort"
)

// Prices are the revenue weights of the efficiency objective
// (Section VII-A1): alpha for high-AU prefill tokens, beta for low-AU
// decode tokens, gamma for the shared application's work units.
type Prices struct {
	Alpha float64
	Beta  float64
	Gamma float64
}

// DefaultPrices returns the paper's default 1.8/0.2 token prices;
// gamma comes from the co-runner profile.
func DefaultPrices(gamma float64) Prices {
	return Prices{Alpha: 1.8, Beta: 0.2, Gamma: gamma}
}

// Efficiency computes E_CPU = (alpha*P_H + beta*P_L + gamma*P_N) / W.
func Efficiency(p Prices, perfH, perfL, perfN, watts float64) float64 {
	if watts <= 0 {
		return 0
	}
	return (p.Alpha*perfH + p.Beta*perfL + p.Gamma*perfN) / watts
}

// Normalize divides every value by the baseline, returning 0 where the
// baseline is 0.
func Normalize(values []float64, baseline float64) []float64 {
	out := make([]float64, len(values))
	if baseline == 0 {
		return out
	}
	for i, v := range values {
		out[i] = v / baseline
	}
	return out
}

// GeoMean returns the geometric mean of positive values (zeros and
// negatives are skipped).
func GeoMean(values []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range values {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// CDF is an empirical cumulative distribution.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples.
func NewCDF(samples []float64) CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return CDF{sorted: s}
}

// At returns P(X <= x).
func (c CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, x)
	for i < len(c.sorted) && c.sorted[i] <= x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (q in [0,1]).
func (c CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := q * float64(len(c.sorted)-1)
	lo := int(idx)
	frac := idx - float64(lo)
	if lo+1 >= len(c.sorted) {
		return c.sorted[lo]
	}
	return c.sorted[lo]*(1-frac) + c.sorted[lo+1]*frac
}

// Len returns the sample count.
func (c CDF) Len() int { return len(c.sorted) }

// Percentile returns the p-th percentile (0..100) of the values,
// interpolated like CDF.Quantile. The caller's slice is not modified.
func Percentile(values []float64, p float64) float64 {
	return NewCDF(values).Quantile(p / 100)
}
