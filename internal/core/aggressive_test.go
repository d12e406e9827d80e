package core

import (
	"testing"

	"oha/internal/lang"
)

// §2.1 of the paper: "we could aggressively assume a property that is
// infrequently violated during profiling as a likely invariant. This
// stronger, but less stable invariant may result in significant
// reduction in dynamic checks, but increase the chance of invariant
// violations." These tests exercise that trade-off.

// rareBranch: the slow path executes on ~1/8 of the inputs the
// generators produce, so standard profiling marks it visited while
// aggressive profiling prunes it.
const rareBranch = `
	global acc = 0;
	global slowpath = 0;
	func work(v) {
		if (v % 8 == 0) {
			// Rare slow path: heavy shared updates.
			var i = 0;
			while (i < 20) {
				slowpath = slowpath + v % 7;
				i = i + 1;
			}
		}
		acc = acc + v;
	}
	func main() {
		var t1 = spawn work(input(0));
		join(t1);
		var i = 0;
		while (i < 8) {
			work(input(i));
			i = i + 1;
		}
		print(acc + slowpath);
	}
`

func profileRare(t *testing.T) (*ProfileResult, *OptFT, *OptFT) {
	t.Helper()
	prog := lang.MustCompile(rareBranch)
	pr := mustProfile(t, prog, func(run int) Execution {
		// Every fourth profiled execution contains a multiple of 8, so
		// the slow path is visited in *some* runs (standard LUC keeps
		// it) but not all (aggressive LUC prunes it).
		last := int64(7)
		if run%4 == 0 {
			last = 8
		}
		return Execution{Inputs: []int64{int64(run%7 + 1), 3, 5, 9, 11, 13, 15, last}, Seed: uint64(run + 1)}
	}, 16)

	std, err := NewOptFTStatic(prog, pr.DB, nil, StaticConfig{})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewOptFTStatic(prog, pr.AggressiveDB(1.0), nil, StaticConfig{}) // prune everything not in every run
	if err != nil {
		t.Fatal(err)
	}
	return pr, std, agg
}

func TestAggressiveLUCElidesMore(t *testing.T) {
	pr, std, agg := profileRare(t)
	if pr.Runs == 0 || len(pr.BlockRuns) == 0 {
		t.Fatal("no profiling stats recorded")
	}
	// The aggressive DB must assume strictly more blocks unreachable.
	aggDB := pr.AggressiveDB(1.0)
	if aggDB.Visited.Len() >= pr.DB.Visited.Len() {
		t.Fatalf("aggressive visited %d !< standard %d",
			aggDB.Visited.Len(), pr.DB.Visited.Len())
	}
	if agg.ElidedAccesses() <= std.ElidedAccesses() {
		t.Errorf("aggressive elides %d, standard %d",
			agg.ElidedAccesses(), std.ElidedAccesses())
	}
	// Zero threshold reproduces the standard set exactly.
	if !pr.AggressiveDB(0).Equal(pr.DB) {
		t.Error("threshold 0 changed the invariant set")
	}
}

func TestAggressiveLUCSoundViaRollback(t *testing.T) {
	prog := lang.MustCompile(rareBranch)
	_, _, agg := profileRare(t)
	// An execution that takes the slow path: the aggressive run must
	// roll back and still match FastTrack.
	e := Execution{Inputs: []int64{8, 16, 24, 1, 2, 3, 4, 5}, Seed: 9}
	ft, err := RunFastTrack(prog, e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := agg.Run(e, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RolledBack {
		t.Fatal("aggressive invariant violation did not roll back")
	}
	if !SameRaces(ft, rep) {
		t.Fatalf("post-rollback results differ: %v vs %v", rep.Races, ft.Races)
	}

	// An execution avoiding the slow path speculates successfully.
	e2 := Execution{Inputs: []int64{1, 2, 3, 4, 5, 6, 7, 9}, Seed: 9}
	rep2, err := agg.Run(e2, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.RolledBack {
		t.Fatalf("fast-path execution rolled back: %s", rep2.Violation)
	}
	ft2, err := RunFastTrack(prog, e2, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !SameRaces(ft2, rep2) {
		t.Fatal("fast-path results differ")
	}
}
