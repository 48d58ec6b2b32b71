package serve

import "aum/internal/metrics"

// maxRecent bounds the sliding windows used for tail estimation.
const maxRecent = 2048

// Stats accumulates serving performance. All counters are cumulative;
// controllers measure intervals by snapshotting and subtracting.
type Stats struct {
	// Prefill.
	PrefillRequests int
	PrefillTokens   float64 // input tokens processed
	// GuaranteedPrefillTokens counts the prompt tokens of requests
	// whose first token met the size-scaled TTFT deadline — the
	// paper's "tokens with performance guarantees" on the prefill
	// side. TTFTMet counts requests meeting the absolute d_TTFT;
	// TTFTMetScaled counts requests meeting the scaled deadline.
	GuaranteedPrefillTokens float64
	TTFTMet                 int
	TTFTMetScaled           int
	TTFTSum                 float64
	recentTTFT              []float64
	recentTTFTSlack         []float64 // d_TTFT - TTFT (negative = violated)

	// Decode.
	DecodeTokens   float64
	TPOTMet        float64
	TPOTSum        float64
	recentTPOT     []float64
	FinishedOutput int // fully completed requests

	// Guaranteed throughput: tokens produced within their SLO.
	GuaranteedTokens float64

	// Admission-control breakdown (all zero when the engine runs the
	// paper's unbounded scheduler).
	Rejected       int // shed at Submit by MaxQueue / MaxHeadWait
	TimedOut       int // dropped from the queue past their Deadline
	BacklogDropped int // prefilled but shed at the bounded decode backlog

	// Disaggregated-serving traffic (zero for a self-contained engine).
	HandedOff int // prefills exported via Config.Handoff
	Injected  int // remote prefills admitted via InjectDecode
}

func pushBounded(s []float64, v float64) []float64 {
	s = append(s, v)
	if len(s) > maxRecent {
		copy(s, s[len(s)-maxRecent:])
		s = s[:maxRecent]
	}
	return s
}

func (s *Stats) recordTTFT(ttft float64, slo SLO, promptTokens int) {
	s.PrefillRequests++
	s.TTFTSum += ttft
	if ttft <= slo.TTFT {
		s.TTFTMet++
	}
	if ttft <= slo.ScaledTTFTDeadline(promptTokens) {
		s.TTFTMetScaled++
		s.GuaranteedPrefillTokens += float64(promptTokens)
	}
	s.recentTTFT = pushBounded(s.recentTTFT, ttft)
	s.recentTTFTSlack = pushBounded(s.recentTTFTSlack, slo.TTFT-ttft)
}

func (s *Stats) recordToken(latency, deadline float64) {
	s.DecodeTokens++
	s.TPOTSum += latency
	if latency <= deadline {
		s.TPOTMet++
		s.GuaranteedTokens++
	}
	s.recentTPOT = pushBounded(s.recentTPOT, latency)
}

// TTFTGuarantee returns the fraction of prefills meeting the absolute
// TTFT SLO.
func (s *Stats) TTFTGuarantee() float64 {
	if s.PrefillRequests == 0 {
		return 1
	}
	return float64(s.TTFTMet) / float64(s.PrefillRequests)
}

// TTFTGuaranteeScaled returns the fraction meeting the size-scaled
// deadline.
func (s *Stats) TTFTGuaranteeScaled() float64 {
	if s.PrefillRequests == 0 {
		return 1
	}
	return float64(s.TTFTMetScaled) / float64(s.PrefillRequests)
}

// TPOTGuarantee returns the fraction of decode tokens meeting the TPOT
// SLO.
func (s *Stats) TPOTGuarantee() float64 {
	if s.DecodeTokens == 0 {
		return 1
	}
	return s.TPOTMet / s.DecodeTokens
}

// MeanTTFT returns the average time-to-first-token.
func (s *Stats) MeanTTFT() float64 {
	if s.PrefillRequests == 0 {
		return 0
	}
	return s.TTFTSum / float64(s.PrefillRequests)
}

// MeanTPOT returns the average time-per-output-token.
func (s *Stats) MeanTPOT() float64 {
	if s.DecodeTokens == 0 {
		return 0
	}
	return s.TPOTSum / s.DecodeTokens
}

// TailTPOT returns the p-th percentile of recent token latencies.
func (s *Stats) TailTPOT(p float64) float64 {
	return metrics.Percentile(s.recentTPOT, p)
}

// TailTTFT returns the p-th percentile of recent TTFTs.
func (s *Stats) TailTTFT(p float64) float64 {
	return metrics.Percentile(s.recentTTFT, p)
}

// RecentTTFTs returns the sliding TTFT window (at most maxRecent
// samples). The fleet layer merges per-node windows to estimate a
// fleet-wide tail. The caller must not mutate the returned slice.
func (s *Stats) RecentTTFTs() []float64 { return s.recentTTFT }

// Clone returns a copy safe to keep as an interval snapshot.
func (s *Stats) Clone() Stats {
	c := *s
	c.recentTTFT = append([]float64(nil), s.recentTTFT...)
	c.recentTTFTSlack = append([]float64(nil), s.recentTTFTSlack...)
	c.recentTPOT = append([]float64(nil), s.recentTPOT...)
	return c
}
