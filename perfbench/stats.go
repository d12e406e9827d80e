package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles the benchmark may report as a
// latency tail, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 50}

// tailPercentile returns the highest percentile from the ladder, at
// most maxPct, that leaves at least 10 samples beyond it among n
// samples. A percentile with fewer samples beyond it is a guess about
// one or two slow requests, not a property of the system. It returns 0
// when even the median does not qualify (n < 20).
func tailPercentile(n int, maxPct float64) float64 {
	for _, p := range tailLadder {
		if p > maxPct {
			continue
		}
		if float64(n)*(100-p)/100 >= 10-1e-9 { // tolerate p = 99.9 rounding
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks. sorted must be ascending.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	r := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(r-float64(lo))
}

// median returns the median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// latency summarizes one set of job latencies in milliseconds.
type latency struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50_ms"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail_ms"`
	Mean    float64 `json:"mean_ms"`
}

// summarize reports the median and the tail percentile chosen by
// tailPercentile (capped at 99).
func summarize(ms []float64) latency {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	l := latency{N: len(s), Mean: mean(s)}
	if len(s) == 0 {
		return l
	}
	l.P50 = percentile(s, 50)
	if p := tailPercentile(len(s), 99); p > 0 {
		l.TailPct, l.Tail = p, percentile(s, p)
	}
	return l
}

// outcome classifies one attempted job.
type outcome int

const (
	outcomeOK      outcome = iota
	outcomeFailed          // the job ran and failed, or a request errored
	outcomeRefused         // admission refused it (429/503)
	outcomeWrong           // it finished, but its verdict or output is wrong
)

// failedFrac is the share of attempted jobs that did not produce a
// correct verdict: failed, refused, and wrong-verdict jobs all count.
func failedFrac(outcomes []outcome) (failed int, frac float64) {
	for _, o := range outcomes {
		if o != outcomeOK {
			failed++
		}
	}
	if len(outcomes) == 0 {
		return 0, 0
	}
	return failed, float64(failed) / float64(len(outcomes))
}

// span is one timed interval recorded by the benchmark around a call
// into a layer. Parent is the index of the enclosing span (-1: none).
type span struct {
	Name   string
	Job    int
	Parent int
	Start  time.Time
	End    time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Children may overlap each
// other (concurrent calls) or stick out of the parent; covered time is
// the union of the children's intervals clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if a.Before(s.Start) {
				a = s.Start
			}
			if b.After(s.End) {
				b = s.End
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		var covered time.Duration
		var curA, curB time.Time
		for k, v := range ivs {
			if k == 0 || v.a.After(curB) {
				covered += curB.Sub(curA)
				curA, curB = v.a, v.b
				continue
			}
			if v.b.After(curB) {
				curB = v.b
			}
		}
		covered += curB.Sub(curA)
		out[i] = s.dur() - covered
	}
	return out
}

// tracer records spans in memory; they are summarized when the run
// ends. It is filled after the closed loop, from one goroutine.
type tracer struct {
	spans []span
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, job, parent int) int {
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: time.Now()})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) { t.spans[i].End = time.Now() }

// add records an already-measured interval.
func (t *tracer) add(name string, job, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}
