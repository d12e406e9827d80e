package core

import (
	"runtime"
	"testing"
	"time"

	"oha/internal/artifacts"
	"oha/internal/lang"
)

// TestAnalyzedProgramIsCollected: no package keeps a program alive
// behind its holders' backs. A program profiled, statically analyzed
// (points-to, MHP, race pairs, static slice, null proof), compiled and
// run by every optimistic client must be garbage once the caller drops
// it and its artifact cache.
func TestAnalyzedProgramIsCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		prog := lang.MustCompile(interpSrc)
		runtime.SetFinalizer(prog, func(any) { close(collected) })
		pr, err := Profile(prog, func(run int) Execution {
			return Execution{Inputs: []int64{2}, Seed: uint64(run + 1)}
		}, 4)
		if err != nil {
			t.Fatal(err)
		}
		cache := artifacts.New("")
		e := Execution{Inputs: []int64{2}, Seed: 7}
		ft, err := NewOptFTStatic(prog, pr.DB, cache, StaticConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ft.Run(e, RunOptions{}); err != nil {
			t.Fatal(err)
		}
		sl, err := NewOptSliceCached(prog, pr.DB, lastPrintOf(t, prog), 4096, cache)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sl.Run(e, RunOptions{}); err != nil {
			t.Fatal(err)
		}
		nl, err := NewOptNullStatic(prog, pr.DB, cache, StaticConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nl.Run(e, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("analyzed program still reachable after its holders dropped it")
}
