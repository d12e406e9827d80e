package core

import (
	"testing"

	"oha/internal/bitset"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/vc"
)

// nullEscapeProg lets a nil pointer escape on large inputs only:
// profiling below the a>1000 split makes the deref's non-null fact
// likely, and a huge input refutes it.
const nullEscapeProg = `
	global p = 0;
	global buf = 7;
	func main() {
		var a = input(0);
		if (a > 100) {
			p = 0;
		}
		if (a < 1000) {
			p = &buf;
		}
		var v = *p;
		print(v);
	}
`

// recordingAdapter records every outcome the lifecycle reports.
type recordingAdapter struct {
	clients []string
	outs    []Outcome
}

func (a *recordingAdapter) Observe(c Client, _ *ir.Program, _ Execution, out *Outcome) {
	a.clients = append(a.clients, c.Name())
	a.outs = append(a.outs, *out)
}

// lifecycleCase is one client's row of TestLifecycleRollsBackToSound:
// a program, its profiling executions, an execution that violates an
// invariant the profile made likely, and the client's three analyses
// of that execution — optimistic (under the adapter), sound hybrid,
// unoptimized — with the verdict equivalence that must hold.
type lifecycleCase struct {
	src      string
	profile  func(run int) Execution
	exec     Execution
	wantKind ViolationKind
	run      func(t *testing.T, prog *ir.Program, pr *ProfileResult, e Execution, opts RunOptions) (opt, sound, base Report)
	same     func(a, b Report) bool
}

var lifecycleCases = map[string]lifecycleCase{
	"race": {
		src:      pathProg,
		profile:  gen(5),
		exec:     Execution{Inputs: []int64{500}, Seed: 3},
		wantKind: ViolationUnreachableBlock,
		run: func(t *testing.T, prog *ir.Program, pr *ProfileResult, e Execution, opts RunOptions) (Report, Report, Report) {
			o, err := NewOptFTStatic(prog, pr.DB, nil, StaticConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return must(t)(o.Run(e, opts)), must(t)(o.Sound.Run(e, RunOptions{})), must(t)(RunFastTrack(prog, e, RunOptions{}))
		},
		same: func(a, b Report) bool { return SameRaces(a.(*RaceReport), b.(*RaceReport)) },
	},
	"slice": {
		src:      pathProg,
		profile:  gen(5),
		exec:     Execution{Inputs: []int64{500}, Seed: 3},
		wantKind: ViolationUnreachableBlock,
		run: func(t *testing.T, prog *ir.Program, pr *ProfileResult, e Execution, opts RunOptions) (Report, Report, Report) {
			criterion := lastPrintOf(t, prog)
			o, err := NewOptSliceStatic(prog, pr.DB, criterion, 512, nil, StaticConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return must(t)(o.Run(e, opts)), must(t)(o.Sound.Run(e, RunOptions{})), must(t)(RunFullGiri(prog, criterion, e, RunOptions{}, 0))
		},
		same: func(a, b Report) bool { return a.(*SliceReport).Slice.Equal(b.(*SliceReport).Slice) },
	},
	"nullcheck": {
		src:      nullEscapeProg,
		profile:  func(run int) Execution { return Execution{Inputs: []int64{int64(run * 40)}, Seed: uint64(run + 1)} },
		exec:     Execution{Inputs: []int64{2000}, Seed: 3},
		wantKind: ViolationNonNull,
		run: func(t *testing.T, prog *ir.Program, pr *ProfileResult, e Execution, opts RunOptions) (Report, Report, Report) {
			o, err := NewOptNullStatic(prog, pr.DB, nil, StaticConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return must(t)(o.Run(e, opts)), must(t)(o.Sound.Run(e, RunOptions{})), must(t)(RunNullAlways(prog, e, RunOptions{}))
		},
		same: func(a, b Report) bool { return SameNullVerdicts(a.(*NullReport), b.(*NullReport)) },
	},
}

// must unwraps a (report, error) pair, failing the test on error.
func must(t *testing.T) func(Report, error) Report {
	return func(r Report, err error) Report {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

// TestLifecycleRollsBackToSound drives the shared speculate→check→
// rollback lifecycle through every registered client on an execution
// that violates an assumed invariant: the optimistic run rolls back
// with the structured violation, its verdict equals both the sound
// hybrid's and the unoptimized baseline's, and the adapter observes
// exactly one outcome, labelled with the client's name.
func TestLifecycleRollsBackToSound(t *testing.T) {
	for _, c := range Clients() {
		tc, ok := lifecycleCases[c.Name()]
		if !ok {
			t.Fatalf("client %q has no lifecycle case", c.Name())
		}
		t.Run(c.Name(), func(t *testing.T) {
			prog := lang.MustCompile(tc.src)
			pr := mustProfile(t, prog, tc.profile, 8)
			rec := &recordingAdapter{}
			opt, sound, base := tc.run(t, prog, pr, tc.exec, RunOptions{Adapt: rec})

			out := opt.Common()
			if !out.RolledBack {
				t.Fatal("violating execution did not roll back")
			}
			if out.Violation.Kind != tc.wantKind || out.Violation.Site < 0 {
				t.Fatalf("violation = %+v, want kind %q at a site", out.Violation, tc.wantKind)
			}
			if out.CheckEvents == 0 {
				t.Fatal("no check events recorded for the aborted run")
			}
			if out.Stats.Steps <= sound.Common().Stats.Steps {
				t.Fatalf("rolled-back steps %d do not include the aborted run (sound alone: %d)",
					out.Stats.Steps, sound.Common().Stats.Steps)
			}
			if !tc.same(opt, sound) {
				t.Fatal("optimistic verdict differs from the sound hybrid's")
			}
			if !tc.same(opt, base) {
				t.Fatal("optimistic verdict differs from the unoptimized baseline's")
			}
			if len(rec.outs) != 1 || rec.clients[0] != c.Name() {
				t.Fatalf("adapter saw %d outcome(s) labelled %v, want one labelled %q", len(rec.outs), rec.clients, c.Name())
			}
			if got := rec.outs[0]; !got.RolledBack || got.Violation.Kind != out.Violation.Kind {
				t.Fatalf("adapter outcome = %+v, want the final rolled-back report", got)
			}
		})
	}
}

// TestCheckerCalleeSetSemantics pins the one arming rule of the
// callee-set check on the shared checker base: every client checks an
// indirect call iff the database carries callee sets at all (the rule
// the predicated points-to prunes by), and then a site with no profiled
// set violates.
func TestCheckerCalleeSetSemantics(t *testing.T) {
	prog := lang.MustCompile(interpSrc)
	var site *ir.Instr
	for _, in := range prog.Instrs {
		if in.IsIndirect() {
			site = in
			break
		}
	}
	if site == nil {
		t.Fatal("no indirect call site")
	}
	callee := prog.Funcs[0]
	type caller interface {
		Call(vc.TID, *ir.Instr, *ir.Function, interp.FrameID, interp.FrameID)
	}
	checkers := map[string]func(*invariants.DB) (caller, *checker){
		"race": func(db *invariants.DB) (caller, *checker) {
			ck := newRaceChecker(prog, db, &interp.Abort{})
			return ck, &ck.checker
		},
		"slice": func(db *invariants.DB) (caller, *checker) {
			ck := newSliceChecker(prog, db, false, &interp.Abort{})
			return ck, &ck.checker
		},
		"nullcheck": func(db *invariants.DB) (caller, *checker) {
			ck := newNullChecker(prog, db, &bitset.Set{}, &interp.Abort{})
			return ck, &ck.checker
		},
	}

	noSets := invariants.NewDB()
	noSets.Callees = nil
	emptySets := invariants.NewDB()
	emptySets.Callees = map[int]*bitset.Set{}
	for _, tc := range []struct {
		client  string
		db      *invariants.DB
		wantHit bool
	}{
		{"slice", noSets, false},
		{"slice", emptySets, true},
		{"nullcheck", noSets, false},
		{"nullcheck", emptySets, true},
		{"race", noSets, false},
		{"race", emptySets, true},
	} {
		tr, ck := checkers[tc.client](tc.db)
		tr.Call(0, site, callee, 0, 0)
		if hit := ck.first.Kind == ViolationCalleeSet; hit != tc.wantHit {
			t.Errorf("%s (callee sets %v): callee-set violation = %v (first %+v), want %v", tc.client, tc.db.Callees != nil, hit, ck.first, tc.wantHit)
		}
		if tc.wantHit && (ck.Events != 1 || !ck.abort.IsSet() || ck.first.Site != site.ID || ck.first.Callee != callee.ID) {
			t.Errorf("%s: events %d, abort %v, first %+v", tc.client, ck.Events, ck.abort.IsSet(), ck.first)
		}
		if !tc.wantHit && ck.Events != 0 {
			t.Errorf("%s: %d check events for an unchecked call", tc.client, ck.Events)
		}
	}
}
