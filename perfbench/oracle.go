package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"oha/internal/core"
	"oha/internal/interp"
	"oha/internal/ir"
)

// reference is the sound verdict for one (program, kind, execution),
// computed on the tree-walking engine — independent of the compiled
// engine and of every speculative lowering the daemon uses.
type reference struct {
	addrs    []string // racy addresses (core.RunFastTrack), formatted
	lines    []int    // slice source lines (core.RunFullGiri)
	nilSites []int    // nil-deref sites (core.RunNullAlways)
	output   []int64  // uninstrumented output
}

// lastPrint is the slice criterion a job without "criterion" uses.
func lastPrint(p *ir.Program) *ir.Instr {
	var last *ir.Instr
	for _, in := range p.Instrs {
		if in.Op == ir.OpPrint {
			last = in
		}
	}
	return last
}

// computeReference runs the sound baselines for one job on the
// tree-walker. The expected output is the uninstrumented run's; where
// that run traps on a nil dereference (only nullcheck jobs are sent
// such inputs) it is the always-check run's, whose nil recovery is the
// defined semantics of a null-checked execution.
func computeReference(p *ir.Program, kind string, e core.Execution) (*reference, error) {
	tree := core.RunOptions{Engine: interp.EngineTree}
	ref := &reference{}
	plain, perr := core.RunPlain(p, e, tree)
	if perr == nil {
		ref.output = plain.Output
	} else if kind != "nullcheck" {
		return nil, fmt.Errorf("uninstrumented run: %w", perr)
	}
	switch kind {
	case "race":
		ft, err := core.RunFastTrack(p, e, tree)
		if err != nil {
			return nil, err
		}
		var details []string
		for _, r := range ft.Details {
			details = append(details, r.String())
		}
		ref.addrs = raceAddrs(details)
	case "slice":
		crit := lastPrint(p)
		if crit == nil {
			return nil, fmt.Errorf("program has no print to slice from")
		}
		g, err := core.RunFullGiri(p, crit, e, tree, 0)
		if err != nil {
			return nil, err
		}
		ref.lines = sliceLines(p, g)
	case "nullcheck":
		n, err := core.RunNullAlways(p, e, tree)
		if err != nil {
			return nil, err
		}
		ref.nilSites = append([]int{}, n.NilSites...)
		if perr != nil {
			ref.output = n.Output
		}
	}
	return ref, nil
}

// sliceLines maps a slice report to its ascending source lines, as the
// daemon's slice job reports them.
func sliceLines(p *ir.Program, rep *core.SliceReport) []int {
	seen := map[int]bool{}
	var lines []int
	if rep.Slice == nil {
		return lines
	}
	rep.Slice.Instrs.ForEach(func(id int) bool {
		if l := p.Instrs[id].Pos.Line; !seen[l] {
			seen[l] = true
			lines = append(lines, l)
		}
		return true
	})
	sort.Ints(lines)
	return lines
}

// raceAddrs extracts the racy addresses from a race job's report
// lines ("<kind> race on <addr>: instr …").
func raceAddrs(races []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range races {
		_, rest, ok := strings.Cut(r, " race on ")
		if !ok {
			continue
		}
		addr, _, _ := strings.Cut(rest, ": instr ")
		if !seen[addr] {
			seen[addr] = true
			out = append(out, addr)
		}
	}
	sort.Strings(out)
	return out
}

// check compares a finished job's verdict and output with the
// reference; a mismatch makes the job count as failed.
func (r *reference) check(kind string, res *jobResult) error {
	got := &res.Result
	switch kind {
	case "race":
		if a := raceAddrs(got.Races); !slices.Equal(a, r.addrs) {
			return fmt.Errorf("racy addresses %v, reference %v", a, r.addrs)
		}
	case "slice":
		if !slices.Equal(got.Lines, r.lines) {
			return fmt.Errorf("slice lines %v, reference %v", got.Lines, r.lines)
		}
	case "nullcheck":
		if !slices.Equal(got.NilSites, r.nilSites) {
			return fmt.Errorf("nil sites %v, reference %v", got.NilSites, r.nilSites)
		}
	}
	// Slice jobs do not carry the program output.
	if kind != "slice" && !slices.Equal(got.Output, r.output) {
		return fmt.Errorf("output %v, reference %v", got.Output, r.output)
	}
	return nil
}

// refKey identifies one reference.
func refKey(p *program, kind string, e core.Execution) string {
	return fmt.Sprintf("%s|%s|%v|%d", p.name, kind, e.Inputs, e.Seed)
}

// references memoizes reference verdicts across the jobs of a run.
type references struct {
	mu   sync.Mutex
	refs map[string]*reference
}

func newReferences() *references { return &references{refs: map[string]*reference{}} }

// get returns the reference for one job, computing it on first use.
func (rs *references) get(p *program, kind string, e core.Execution) (*reference, error) {
	key := refKey(p, kind, e)
	rs.mu.Lock()
	ref, ok := rs.refs[key]
	rs.mu.Unlock()
	if ok {
		return ref, nil
	}
	prog, err := p.compiled()
	if err == nil {
		ref, err = computeReference(prog, kind, e)
	}
	if err != nil {
		return nil, fmt.Errorf("reference for %s %s: %w", p.name, kind, err)
	}
	rs.mu.Lock()
	rs.refs[key] = ref
	rs.mu.Unlock()
	return ref, nil
}
