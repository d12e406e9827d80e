package core

import (
	"testing"

	"oha/internal/artifacts"
	"oha/internal/invariants"
	"oha/internal/lang"
)

// ------------------------------------------------- AggressiveDB edges

// syntheticProfile builds a ProfileResult with hand-picked block
// statistics: blocks 1..3 visited in 10/5/1 of 10 runs, block 4
// visited but absent from the statistics.
func syntheticProfile() *ProfileResult {
	db := invariants.NewDB()
	for _, b := range []int{1, 2, 3, 4} {
		db.Visited.Add(b)
	}
	return &ProfileResult{
		DB:        db,
		Runs:      10,
		BlockRuns: map[int]int{1: 10, 2: 5, 3: 1},
	}
}

func TestAggressiveDBEdgeCases(t *testing.T) {
	pr := syntheticProfile()

	// minFrac = 0: the standard invariant set, untouched.
	if got := pr.AggressiveDB(0); !got.Equal(pr.DB) {
		t.Error("minFrac=0 changed the invariant set")
	}

	// minFrac = 1: only blocks visited in every run survive; blocks
	// without statistics are never pruned.
	got := pr.AggressiveDB(1)
	for b, want := range map[int]bool{1: true, 2: false, 3: false, 4: true} {
		if got.Visited.Has(b) != want {
			t.Errorf("minFrac=1: block %d visited = %v, want %v", b, got.Visited.Has(b), want)
		}
	}

	// minFrac > 1: an impossible threshold prunes every block with
	// statistics, but still keeps statistics-free blocks.
	got = pr.AggressiveDB(2)
	for b, want := range map[int]bool{1: false, 2: false, 3: false, 4: true} {
		if got.Visited.Has(b) != want {
			t.Errorf("minFrac=2: block %d visited = %v, want %v", b, got.Visited.Has(b), want)
		}
	}

	// The result is always a private clone.
	got.Visited.Remove(4)
	if !pr.DB.Visited.Has(4) {
		t.Error("AggressiveDB returned a shared database")
	}

	// Empty BlockRuns: nothing to prune at any threshold.
	empty := &ProfileResult{DB: pr.DB.Clone(), Runs: 10, BlockRuns: map[int]int{}}
	if got := empty.AggressiveDB(1); !got.Equal(empty.DB) {
		t.Error("empty BlockRuns pruned blocks")
	}

	// Zero runs: the threshold is meaningless; the set is unchanged.
	zero := &ProfileResult{DB: pr.DB.Clone(), Runs: 0, BlockRuns: map[int]int{1: 1}}
	if got := zero.AggressiveDB(1); !got.Equal(zero.DB) {
		t.Error("zero-run profile pruned blocks")
	}
}

// ------------------------------------------------- parallel determinism

const parallelRacy = `
	global a = 0;
	global b = 0;
	global m = 0;
	func w1(v) { lock(&m); a = a + v; unlock(&m); b = b + 1; }
	func w2(v) { lock(&m); a = a * v; unlock(&m); }
	func main() {
		var t1 = spawn w1(input(0));
		var t2 = spawn w2(input(1));
		join(t1); join(t2);
		print(a + b);
	}
`

func parallelGen(run int) Execution {
	return Execution{Inputs: []int64{int64(run%5 + 1), int64(run%3 + 1)}, Seed: uint64(run + 1)}
}

func TestProfileWithWorkersAndCacheDeterminism(t *testing.T) {
	prog := lang.MustCompile(parallelRacy)
	seq, err := ProfileWith(prog, parallelGen, ProfileOptions{MaxRuns: 16, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cache := artifacts.New("")
	for _, workers := range []int{2, 8} {
		for pass := 0; pass < 2; pass++ { // second pass: warm cache
			pr, err := ProfileWith(prog, parallelGen, ProfileOptions{MaxRuns: 16, Workers: workers, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			if pr.Runs != seq.Runs || !pr.DB.Equal(seq.DB) {
				t.Errorf("workers=%d pass=%d: result diverged from sequential", workers, pass)
			}
		}
	}
	if st := cache.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Errorf("cache unused: %+v", st)
	}
}

func TestProfileNWithWorkersDeterminism(t *testing.T) {
	prog := lang.MustCompile(parallelRacy)
	execs := make([]Execution, 12)
	for i := range execs {
		execs[i] = parallelGen(i)
	}
	seq, err := ProfileNWith(prog, execs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		db, err := ProfileNWith(prog, execs, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !db.Equal(seq) {
			t.Errorf("workers=%d: merged database diverged", workers)
		}
	}
}

// --------------------------------------------- cache eliminates solves

func TestCacheEliminatesRepeatedStaticSolves(t *testing.T) {
	prog := lang.MustCompile(parallelRacy)
	pr := mustProfile(t, prog, parallelGen, 16)
	cache := artifacts.New("")

	// Cold: the predicated race pipeline solves points-to, MHP and the
	// static race analysis once.
	opt1, err := NewOptFTStatic(prog, pr.DB, cache, StaticConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cold := cache.Stats()
	if cold.Misses == 0 {
		t.Fatal("no solves recorded on a cold cache")
	}

	// Warm: rebuilding the same configuration must perform zero new
	// solves and produce an equivalent analysis.
	opt2, err := NewOptFTStatic(prog, pr.DB, cache, StaticConfig{})
	if err != nil {
		t.Fatal(err)
	}
	warm := cache.Stats()
	if warm.Misses != cold.Misses {
		t.Errorf("warm rebuild performed %d new solves", warm.Misses-cold.Misses)
	}
	if warm.Hits <= cold.Hits {
		t.Error("warm rebuild did not hit the cache")
	}
	if len(opt1.Pred.Pairs) != len(opt2.Pred.Pairs) || opt1.ElidedAccesses() != opt2.ElidedAccesses() {
		t.Error("cached rebuild produced a different analysis")
	}

	// The cached constructor must agree with the uncached one.
	plain, err := NewOptFTStatic(prog, pr.DB, nil, StaticConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Pred.Pairs) != len(opt1.Pred.Pairs) || plain.ElidedAccesses() != opt1.ElidedAccesses() {
		t.Error("cached and uncached constructors disagree")
	}
}

func TestCacheEliminatesRepeatedSliceSolves(t *testing.T) {
	prog := lang.MustCompile(parallelRacy)
	pr := mustProfile(t, prog, parallelGen, 16)
	criterion := lastPrintOf(t, prog)
	cache := artifacts.New("")

	opt1, err := NewOptSliceCached(prog, pr.DB, criterion, 24, cache)
	if err != nil {
		t.Fatal(err)
	}
	cold := cache.Stats()
	opt2, err := NewOptSliceCached(prog, pr.DB, criterion, 24, cache)
	if err != nil {
		t.Fatal(err)
	}
	warm := cache.Stats()
	if warm.Misses != cold.Misses {
		t.Errorf("warm rebuild performed %d new solves", warm.Misses-cold.Misses)
	}
	if opt1.Static.Size() != opt2.Static.Size() || opt1.AT != opt2.AT {
		t.Error("cached rebuild produced a different slice")
	}
	plain, err := NewOptSliceStatic(prog, pr.DB, criterion, 24, nil, StaticConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Static.Size() != opt1.Static.Size() || plain.AT != opt1.AT {
		t.Error("cached and uncached slicers disagree")
	}
}
