package core

import (
	"fmt"
	"sort"
	"testing"

	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/progen"
)

// TestGeneratedProgramSoundness pins generated programs on which an
// optimistic analysis once reported less than its sound baseline
// without rolling back. Each program is profiled as the daemon profiles
// it (two runs of the profiling input, seeds 1 and 2) and analyzed on
// an input the profile never saw:
//
//   - race: OptFT skipped the likely-callee-set check its predicated
//     points-to relied on, so calls escaping the profiled sets ran
//     unchecked and racy accesses went uninstrumented;
//   - slice: the static slicer dropped stores that cannot precede a
//     load within one activation of a function called in a loop, but
//     memory carries them to the load of the next activation.
func TestGeneratedProgramSoundness(t *testing.T) {
	for _, tc := range []struct {
		kind    string
		seed    uint64
		profile []int64
		test    []int64
		runSeed uint64
	}{
		{"race", 10001409, []int64{0, 2, 15, 28, 41, 54, 3, 16}, []int64{73, 58, 60, 25, 87, 39, 98, 87}, 59195},
		{"race", 10001999, []int64{0, 36, 49, 62, 11, 24, 37, 50}, []int64{79, 38, 29, 76, 31, 12, 1, 33}, 36093},
		{"race", 12003029, []int64{0, 36, 49, 62, 11, 24, 37, 50}, []int64{55, 56, 98, 74, 81, 7, 99, 18}, 42228},
		{"slice", 4004120, []int64{0, 33, 46, 59, 8, 21, 34, 47}, []int64{66, 4, 23, 3, 69, 85, 93, 23}, 17162},
		{"slice", 6007437, []int64{0, 42, 55, 4, 17, 30, 43, 56}, []int64{52, 79, 11, 30, 51, 10, 76, 47}, 12038},
		{"slice", 9004577, []int64{0, 55, 4, 17, 30, 43, 56, 5}, []int64{20, 17, 21, 87, 76, 52, 45, 15}, 24340},
	} {
		t.Run(fmt.Sprintf("%s/gen-%d", tc.kind, tc.seed), func(t *testing.T) {
			prog, err := lang.Compile(progen.Generate(tc.seed, progen.DefaultConfig()))
			if err != nil {
				t.Fatal(err)
			}
			pr, err := ProfileWith(prog, func(run int) Execution {
				return Execution{Inputs: tc.profile, Seed: uint64(run + 1)}
			}, ProfileOptions{MaxRuns: 2, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			e := Execution{Inputs: tc.test, Seed: tc.runSeed}
			switch tc.kind {
			case "race":
				opt, err := NewOptFTStatic(prog, pr.DB, nil, StaticConfig{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				got, err := opt.Run(e, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				want, err := RunFastTrack(prog, e, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !SameRaces(got, want) {
					t.Fatalf("OptFT racy addrs %v (rolled back %v), FastTrack %v", got.RacyAddrs, got.RolledBack, want.RacyAddrs)
				}
			case "slice":
				crit := lastPrintOf(t, prog)
				opt, err := NewOptSliceCached(prog, pr.DB, crit, 4096, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := opt.Run(e, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				want, err := RunFullGiri(prog, crit, e, RunOptions{}, 0)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := sliceLines(prog, got), sliceLines(prog, want); g != w {
					t.Fatalf("OptSlice lines %s (rolled back %v), full slicing %s", g, got.RolledBack, w)
				}
			}
		})
	}
}

// sliceLines renders a slice report's source lines in ascending order,
// as the daemon's slice job reports them.
func sliceLines(prog *ir.Program, rep *SliceReport) string {
	lines := map[int]bool{}
	if rep.Slice != nil {
		rep.Slice.Instrs.ForEach(func(id int) bool {
			lines[prog.Instrs[id].Pos.Line] = true
			return true
		})
	}
	out := make([]int, 0, len(lines))
	for l := range lines {
		out = append(out, l)
	}
	sort.Ints(out)
	return fmt.Sprint(out)
}
