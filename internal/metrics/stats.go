// Package metrics provides streaming statistics used by the VaLoRA
// simulator: online mean/variance, percentile estimation over recorded
// samples, and simple fixed-width histograms.
//
// All collectors are plain in-memory value types. None of them are
// safe for concurrent use; the serving layer owns one collector per
// goroutine and merges results explicitly.
package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Stream accumulates scalar samples and answers mean / percentile /
// min / max queries. The default (NewStream) retains every sample so
// percentiles are exact; experiments recording at most a few hundred
// thousand samples keep that cheap. NewBoundedStream caps retention
// with a reservoir for multi-million-sample stress runs: count, sum,
// mean, min and max stay exact, while percentiles degrade gracefully
// to a uniform-sample estimate once the reservoir overflows (and stay
// exact until then).
type Stream struct {
	samples []float64
	sum     float64
	sorted  bool

	// cap > 0 selects bounded-memory reservoir mode (NewBoundedStream);
	// 0 means unbounded exact retention.
	cap int
	// seen counts samples offered, including ones the reservoir
	// dropped; minV/maxV track the exact extremes in both modes so
	// Min/Max (and Merge) never depend on reservoir survival.
	seen int
	minV float64
	maxV float64
	rng  *rand.Rand
}

// NewStream returns an empty sample stream with unbounded exact
// retention.
func NewStream() *Stream { return &Stream{} }

// NewBoundedStream returns a stream that retains at most cap samples
// (Vitter's Algorithm R reservoir; deterministic seed so replays are
// reproducible). cap <= 0 falls back to unbounded retention.
func NewBoundedStream(cap int) *Stream {
	if cap <= 0 {
		return NewStream()
	}
	return &Stream{cap: cap, rng: rand.New(rand.NewSource(1))}
}

// Add records one sample.
func (s *Stream) Add(v float64) {
	s.seen++
	s.sum += v
	if s.seen == 1 || v < s.minV {
		s.minV = v
	}
	if s.seen == 1 || v > s.maxV {
		s.maxV = v
	}
	if s.cap > 0 {
		if len(s.samples) < s.cap {
			if s.samples == nil {
				// Reservoir streams almost always fill: allocate the
				// full window once instead of paying log2(cap)
				// growslice copies on the hot Add path.
				s.samples = make([]float64, 0, s.cap)
			}
			s.samples = append(s.samples, v)
		} else if j := s.rng.Intn(s.seen); j < s.cap {
			s.samples[j] = v
		} else {
			return // dropped; retained set unchanged, stays sorted
		}
	} else {
		s.samples = append(s.samples, v)
	}
	s.sorted = false
}

// AddDuration records a duration sample in milliseconds.
func (s *Stream) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// Count reports the number of recorded samples (including any the
// reservoir dropped in bounded mode: counting stays exact).
func (s *Stream) Count() int { return s.seen }

// Retained reports the number of samples held in memory (== Count for
// unbounded streams, ≤ the cap for bounded ones).
func (s *Stream) Retained() int { return len(s.samples) }

// Sum reports the exact sum of all recorded samples.
func (s *Stream) Sum() float64 { return s.sum }

// Mean reports the arithmetic mean, or 0 for an empty stream. Exact in
// both modes (sum and count are tracked outside the reservoir).
func (s *Stream) Mean() float64 {
	if s.seen == 0 {
		return 0
	}
	return s.sum / float64(s.seen)
}

// Min reports the smallest sample, or 0 for an empty stream. Exact in
// both modes.
func (s *Stream) Min() float64 {
	if s.seen == 0 {
		return 0
	}
	return s.minV
}

// Max reports the largest sample, or 0 for an empty stream. Exact in
// both modes.
func (s *Stream) Max() float64 {
	if s.seen == 0 {
		return 0
	}
	return s.maxV
}

// Percentile reports the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It returns 0 for an empty
// stream.
func (s *Stream) Percentile(p float64) float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min()
	}
	if p >= 100 {
		return s.Max()
	}
	s.ensureSorted()
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.samples[lo]
	}
	frac := rank - float64(lo)
	return s.samples[lo]*(1-frac) + s.samples[hi]*frac
}

// StdDev reports the population standard deviation.
func (s *Stream) StdDev() float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, v := range s.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Merge folds all samples of other into s. Sum, count, min and max
// merge exactly in every mode combination. Retained samples append
// when s is unbounded; a bounded s folds them through its reservoir
// (percentiles then estimate the merged population from other's
// retained subset — exact whenever other never overflowed).
func (s *Stream) Merge(other *Stream) {
	wasEmpty := s.seen == 0
	if s.cap == 0 && (s.sorted || len(s.samples) == 0) && (other.sorted || len(other.samples) == 0) {
		// Both sides already sorted (the cluster aggregate merges
		// per-instance streams their own Summarize sorted): a linear
		// merge keeps the result sorted, so the aggregate's Summarize
		// never pays a full re-sort over the union.
		merged := make([]float64, 0, len(s.samples)+len(other.samples))
		i, j := 0, 0
		for i < len(s.samples) && j < len(other.samples) {
			if s.samples[i] <= other.samples[j] {
				merged = append(merged, s.samples[i])
				i++
			} else {
				merged = append(merged, other.samples[j])
				j++
			}
		}
		merged = append(merged, s.samples[i:]...)
		merged = append(merged, other.samples[j:]...)
		s.samples = merged
		s.seen += other.seen
		if other.seen > 0 {
			if wasEmpty || other.minV < s.minV {
				s.minV = other.minV
			}
			if wasEmpty || other.maxV > s.maxV {
				s.maxV = other.maxV
			}
		}
		s.sum += other.sum
		s.sorted = true
		return
	}
	if s.cap > 0 {
		for _, v := range other.samples {
			if len(s.samples) < s.cap {
				s.samples = append(s.samples, v)
			} else if j := s.rng.Intn(s.seen + 1); j < s.cap {
				s.samples[j] = v
			}
			s.seen++
		}
		// Count what other actually saw, not just what it retained.
		s.seen += other.seen - len(other.samples)
	} else {
		if free := cap(s.samples) - len(s.samples); free < len(other.samples) {
			grown := make([]float64, len(s.samples), len(s.samples)+len(other.samples))
			copy(grown, s.samples)
			s.samples = grown
		}
		s.samples = append(s.samples, other.samples...)
		s.seen += other.seen
	}
	if other.seen > 0 {
		if wasEmpty || other.minV < s.minV {
			s.minV = other.minV
		}
		if wasEmpty || other.maxV > s.maxV {
			s.maxV = other.maxV
		}
	}
	s.sum += other.sum
	s.sorted = false
}

// Reset discards all recorded samples (the reservoir cap, if any, is
// kept).
func (s *Stream) Reset() {
	s.samples = s.samples[:0]
	s.sum = 0
	s.seen = 0
	s.minV, s.maxV = 0, 0
	s.sorted = true
}

func (s *Stream) ensureSorted() {
	if s.sorted {
		return
	}
	if len(s.samples) >= radixSortThreshold {
		radixSortFloat64(s.samples)
	} else {
		sort.Float64s(s.samples)
	}
	s.sorted = true
}

// Summary is a compact snapshot of a stream, convenient for report
// tables.
type Summary struct {
	Count int
	Mean  float64
	P50   float64
	P90   float64
	P95   float64
	P99   float64
	Min   float64
	Max   float64
	Std   float64
}

// Summarize captures the common summary statistics of the stream.
func (s *Stream) Summarize() Summary {
	return Summary{
		Count: s.Count(),
		Mean:  s.Mean(),
		P50:   s.Percentile(50),
		P90:   s.Percentile(90),
		P95:   s.Percentile(95),
		P99:   s.Percentile(99),
		Min:   s.Min(),
		Max:   s.Max(),
		Std:   s.StdDev(),
	}
}

// String renders the summary on one line (values interpreted in the
// caller's unit, typically milliseconds).
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p90=%.3f p95=%.3f p99=%.3f min=%.3f max=%.3f",
		s.Count, s.Mean, s.P50, s.P90, s.P95, s.P99, s.Min, s.Max)
}

// JainIndex reports Jain's fairness index over per-entity allocations:
// (Σx)² / (n·Σx²), in (0, 1] with 1 meaning perfectly equal shares.
// The multi-tenant report feeds it weight-normalized per-tenant
// service, so 1 means every tenant got exactly its configured share.
// Empty or all-zero inputs report 1 (nothing was served unfairly).
func JainIndex(xs []float64) float64 {
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if len(xs) == 0 || sumsq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}
