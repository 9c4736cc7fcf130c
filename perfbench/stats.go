package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"valora/internal/serving"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reports the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// reportDigest fingerprints a report's virtual results. Reports hold no
// wall-clock field, so equal inputs must give equal digests.
func reportDigest(r *serving.Report) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *r)))
	return hex.EncodeToString(sum[:8])
}

// memDelta is the allocator and collector activity between two points.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func (d *memDelta) add(o memDelta) {
	d.allocBytes += o.allocBytes
	d.gcCycles += o.gcCycles
	d.gcPause += o.gcPause
}

type memMark runtime.MemStats

func readMem() *memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (*memMark)(&m)
}

func (m *memMark) since(prev *memMark) memDelta {
	return memDelta{
		allocBytes: m.TotalAlloc - prev.TotalAlloc,
		gcCycles:   m.NumGC - prev.NumGC,
		gcPause:    time.Duration(m.PauseTotalNs - prev.PauseTotalNs),
	}
}
