package main

import (
	"math"
	"sort"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		max  float64
		want float64
	}{
		{n: 10000, max: 99.9, want: 99.9}, // 10 beyond p99.9
		{n: 9999, max: 99.9, want: 99},    // 9.999 beyond p99.9: too few
		{n: 10000, max: 99, want: 99},     // capped
		{n: 1000, max: 99, want: 99},      // exactly 10 beyond p99
		{n: 999, max: 99, want: 95},
		{n: 200, max: 99, want: 95},
		{n: 199, max: 99, want: 90},
		{n: 100, max: 99, want: 90},
		{n: 99, max: 99, want: 50},
		{n: 20, max: 99, want: 50},
		{n: 19, max: 99, want: 0},
		{n: 0, max: 99, want: 0},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.max); got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.max, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {25, 1.75}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", s, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestSummarizeReportsQualifyingTail(t *testing.T) {
	ms := make([]float64, 150)
	for i := range ms {
		ms[i] = float64(150 - i) // unsorted input
	}
	l := summarize(ms)
	if l.N != 150 || l.TailPct != 90 {
		t.Fatalf("summarize: n=%d tail p%g, want n=150 tail p90", l.N, l.TailPct)
	}
	if want := percentile(sorted(ms), 90); l.Tail != want {
		t.Errorf("tail = %g, want %g", l.Tail, want)
	}
	if l.P50 != 75.5 {
		t.Errorf("p50 = %g, want 75.5", l.P50)
	}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	spans := []span{
		{Name: "root", Parent: -1, Start: at(0), End: at(100)},
		// Two children overlapping each other: union [10, 40].
		{Name: "a", Parent: 0, Start: at(10), End: at(30)},
		{Name: "b", Parent: 0, Start: at(20), End: at(40)},
		// A child sticking out of its parent counts only inside it.
		{Name: "c", Parent: 0, Start: at(90), End: at(120)},
		// A grandchild is subtracted from its parent only.
		{Name: "a1", Parent: 1, Start: at(12), End: at(18)},
		// A disjoint child.
		{Name: "d", Parent: 0, Start: at(50), End: at(60)},
	}
	got := selfTimes(spans)
	want := []time.Duration{
		100 - 30 - 10 - 10, // root minus [10,40], [50,60], [90,100]
		20 - 6,
		20,
		30,
		6,
		10,
	}
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i]*time.Millisecond)
		}
	}
}

func TestSelfTimesNestedChildOfChild(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	// A child fully containing another child: the union is the outer one.
	spans := []span{
		{Name: "root", Parent: -1, Start: at(0), End: at(10)},
		{Name: "outer", Parent: 0, Start: at(1), End: at(9)},
		{Name: "inner", Parent: 0, Start: at(2), End: at(3)},
	}
	if got := selfTimes(spans)[0]; got != 2*time.Millisecond {
		t.Errorf("self(root) = %v, want 2ms", got)
	}
}

func TestFailedFracCountsEveryNonOK(t *testing.T) {
	outs := []outcome{outcomeOK, outcomeFailed, outcomeOK, outcomeRefused, outcomeWrong, outcomeOK, outcomeOK, outcomeOK}
	n, f := failedFrac(outs)
	if n != 3 || f != 3.0/8 {
		t.Errorf("failedFrac = %d, %g; want 3, 0.375", n, f)
	}
	if n, f := failedFrac(nil); n != 0 || f != 0 {
		t.Errorf("failedFrac(nil) = %d, %g; want 0, 0", n, f)
	}
}

func TestRaceAddrs(t *testing.T) {
	got := raceAddrs([]string{
		"write-write race on ptr(obj=0, off=5): instr 3 at 4:5 vs instr 2 at 3:1",
		"read-write race on ptr(obj=0, off=2): instr 7 at 9:2 vs ?",
		"write-write race on ptr(obj=0, off=5): instr 9 at 4:5 vs instr 2 at 3:1",
	})
	want := []string{"ptr(obj=0, off=2)", "ptr(obj=0, off=5)"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("raceAddrs = %v, want %v", got, want)
	}
}

func TestOverlap(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	for _, c := range []struct {
		a, b, c, d int
		want       int
	}{
		{0, 10, 5, 20, 5}, {0, 10, 20, 30, 0}, {5, 8, 0, 10, 3}, {0, 10, 2, 4, 2},
	} {
		if got := overlap(at(c.a), at(c.b), at(c.c), at(c.d)); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("overlap([%d,%d],[%d,%d]) = %v, want %dms", c.a, c.b, c.c, c.d, got, c.want)
		}
	}
}
