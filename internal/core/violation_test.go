package core

import (
	"reflect"
	"testing"

	"oha/internal/interp"
	"oha/internal/ir"
	"oha/internal/lang"
)

// These tests pin down the rollback edge cases the adaptive layer's
// ledger depends on: the structured Violation must identify the FIRST
// violated invariant, deterministically, under both execution engines,
// whether the violation fires on the main thread, inside a spawned
// thread, or alongside a second violated invariant in the same run.

var bothEngines = []struct {
	name   string
	engine interp.EngineKind
}{
	{"compiled", interp.EngineCompiled},
	{"tree", interp.EngineTree},
}

// TestViolationInSpawnedThread: the LUC block is entered by a spawned
// worker thread, not main; the report must still carry the block site.
func TestViolationInSpawnedThread(t *testing.T) {
	prog := lang.MustCompile(pathProg)
	pr := mustProfile(t, prog, gen(5), 20)
	o, err := NewOptFTStatic(prog, pr.DB, nil, StaticConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e := Execution{Inputs: []int64{500}, Seed: 3}
	var got []Violation
	for _, eng := range bothEngines {
		rep, err := o.Run(e, RunOptions{Engine: eng.engine})
		if err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		if !rep.RolledBack {
			t.Fatalf("%s: no rollback", eng.name)
		}
		if rep.Violation.Kind != ViolationUnreachableBlock {
			t.Fatalf("%s: kind = %q, want %q", eng.name, rep.Violation.Kind, ViolationUnreachableBlock)
		}
		b := prog.Blocks[rep.Violation.Site]
		if b.Fn.Name != "w" {
			t.Errorf("%s: violating block in %q, want spawned worker \"w\"", eng.name, b.Fn.Name)
		}
		got = append(got, rep.Violation)
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("engines disagree on first violation: %+v vs %+v", got[0], got[1])
	}
}

// TestViolationPreservedAcrossRollbackReplay: the rollback re-execution
// runs the sound hybrid analysis (no checks), so the report must carry
// the speculative run's violation unchanged — and a replay of the same
// Execution must reproduce it exactly.
func TestViolationPreservedAcrossRollbackReplay(t *testing.T) {
	src := `
		global g = 0;
		global m = 0;
		func w() {
			lock(&m);
			g = g + 1;
			unlock(&m);
		}
		func main() {
			var n = input(0);
			var i = 0;
			var t = 0;
			while (i < n) {
				t = spawn w();
				join(t);
				i = i + 1;
			}
			print(g);
		}
	`
	prog := lang.MustCompile(src)
	pr := mustProfile(t, prog, gen(1), 20)
	o, err := NewOptFTStatic(prog, pr.DB, nil, StaticConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e := Execution{Inputs: []int64{3}, Seed: 2}
	for _, eng := range bothEngines {
		ft, err := RunFastTrack(prog, e, RunOptions{Engine: eng.engine})
		if err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		first, err := o.Run(e, RunOptions{Engine: eng.engine})
		if err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		if !first.RolledBack || first.Violation.Kind != ViolationSingletonSpawn {
			t.Fatalf("%s: rolledback=%v violation=%+v, want singleton-spawn rollback",
				eng.name, first.RolledBack, first.Violation)
		}
		if !SameRaces(ft, first) {
			t.Fatalf("%s: replayed (rollback) results diverged from FastTrack", eng.name)
		}
		// Deterministic replay: analyzing the identical Execution again
		// reproduces the identical violation record.
		again, err := o.Run(e, RunOptions{Engine: eng.engine})
		if err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		if !reflect.DeepEqual(first.Violation, again.Violation) {
			t.Fatalf("%s: replay changed the violation: %+v vs %+v",
				eng.name, first.Violation, again.Violation)
		}
	}
}

// TestFirstOfTwoViolationsWins: one run that violates two distinct
// invariants — the unlikely branch is LUC, and taking it also breaks
// the guarding-lock must-alias pair. The BlockEnter event precedes the
// Lock event, so unreachable-block must win under both engines.
func TestFirstOfTwoViolationsWins(t *testing.T) {
	src := `
		global g = 0;
		global m1 = 0;
		global m2 = 0;
		func w1() {
			lock(&m1);
			g = g + 1;
			unlock(&m1);
		}
		func w2(which) {
			var p = &m1;
			if (which > 10) { p = &m2; }
			lock(p);
			g = g + 2;
			unlock(p);
		}
		func main() {
			var i = 0;
			var t1 = 0;
			var t2 = 0;
			while (i < 2) {
				t1 = spawn w1();
				t2 = spawn w2(input(0));
				join(t1);
				join(t2);
				i = i + 1;
			}
			print(g);
		}
	`
	prog := lang.MustCompile(src)
	pr := mustProfile(t, prog, gen(1), 20)
	if len(pr.DB.MustAliasLocks) == 0 {
		t.Fatal("test premise broken: no must-alias pairs profiled")
	}
	o, err := NewOptFTStatic(prog, pr.DB, nil, StaticConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e := Execution{Inputs: []int64{50}, Seed: 1}
	var got []Violation
	for _, eng := range bothEngines {
		rep, err := o.Run(e, RunOptions{Engine: eng.engine})
		if err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		if !rep.RolledBack {
			t.Fatalf("%s: no rollback", eng.name)
		}
		if rep.Violation.Kind != ViolationUnreachableBlock {
			t.Fatalf("%s: first violation = %q, want %q (BlockEnter precedes Lock)",
				eng.name, rep.Violation.Kind, ViolationUnreachableBlock)
		}
		got = append(got, rep.Violation)
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("engines disagree on first violation: %+v vs %+v", got[0], got[1])
	}
}

// TestSliceFirstViolationAcrossEngines covers the slicer's checker: an
// execution entering a LUC block rolls back with that block as the
// structured first violation, identically under both engines.
func TestSliceFirstViolationAcrossEngines(t *testing.T) {
	prog := lang.MustCompile(pathProg)
	pr := mustProfile(t, prog, gen(5), 20)
	var criterion *ir.Instr
	for _, in := range prog.Instrs {
		if in.Op == ir.OpPrint {
			criterion = in
		}
	}
	o, err := NewOptSliceStatic(prog, pr.DB, criterion, 512, nil, StaticConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e := Execution{Inputs: []int64{500}, Seed: 3}
	var got []Violation
	for _, eng := range bothEngines {
		rep, err := o.Run(e, RunOptions{Engine: eng.engine})
		if err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		if !rep.RolledBack {
			t.Fatalf("%s: no rollback", eng.name)
		}
		if rep.Violation.Kind != ViolationUnreachableBlock {
			t.Fatalf("%s: kind = %q, want %q", eng.name, rep.Violation.Kind, ViolationUnreachableBlock)
		}
		got = append(got, rep.Violation)
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("engines disagree on first violation: %+v vs %+v", got[0], got[1])
	}
}
