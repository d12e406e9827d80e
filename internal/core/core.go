// Package core implements optimistic hybrid analysis — the paper's
// primary contribution — by wiring together the three phases of §2:
//
//  1. likely-invariant profiling (package profile), including the
//     iterative no-custom-synchronization pass of §4.2.4;
//  2. predicated static analysis (packages pointsto, mhp, staticrace,
//     staticslice, nullcheck over an invariant-restricted ctxs.Tree);
//  3. speculative dynamic analysis: the client analysis runs with
//     instrumentation elided per the predicated static results,
//     alongside cheap invariant checks; a violated invariant aborts
//     the run, which is then rolled back and re-executed under the
//     traditional (sound) hybrid analysis.
//
// Three clients share that lifecycle: OptFT (race detection, §4),
// OptSlice (backward slicing, §5) and OptNull (null/misuse checking).
// Each contributes only its static phase, masks, tracer, checker and
// report; one runner (speculation.run) owns speculate→check→rollback,
// and one checker base owns the checks the clients share. Each client
// also has its traditional baselines (pure FastTrack, hybrid FastTrack,
// hybrid Giri, always-check and hybrid null checking) for the
// evaluation harness.
package core

import (
	"context"
	"errors"
	"fmt"

	"oha/internal/artifacts"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/profile"
	"oha/internal/sched"
)

// Execution identifies one concrete execution to analyze: a program
// input vector plus a schedule seed. Determinism of the interpreter
// and seeded scheduler makes re-running an Execution exact — this is
// the record/replay substrate the rollback path relies on (§2.3).
type Execution struct {
	Inputs []int64
	Seed   uint64
}

// RunOptions bounds executions. Ctx, when non-nil, makes every run
// entry point context-aware: cancellation (a daemon shutdown, a per-job
// timeout) stops the interpreter within one scheduling quantum with an
// error wrapping interp.ErrCanceled. Rollback re-executions inherit the
// same context, so a canceled job never starts its sound re-run.
type RunOptions struct {
	Quantum  int
	MaxSteps uint64
	Ctx      context.Context
	// Engine selects the interpreter engine (default: compiled
	// bytecode; interp.EngineTree for the reference tree-walker).
	Engine interp.EngineKind
	// Adapt, when non-nil, observes every OptFT/OptSlice/OptNull outcome
	// — the hook the adaptive speculation manager (internal/adapt) uses
	// to feed its violation ledger. The observer runs after the report
	// is final (including rollback re-execution) and must not mutate it.
	Adapt Adapter
}

func (o RunOptions) apply(cfg *interp.Config) {
	cfg.Quantum = o.Quantum
	cfg.MaxSteps = o.MaxSteps
	cfg.Ctx = o.Ctx
	cfg.Engine = o.Engine
}

// Adapter observes analysis outcomes as they are produced. It is
// implemented by adapt.Manager; core itself never refines — the
// observer only records, keeping run latency flat.
type Adapter interface {
	// Observe is called once per optimistic Run with the final
	// outcome of client c's analysis of e on prog.
	Observe(c Client, prog *ir.Program, e Execution, out *Outcome)
}

// Outcome holds the report fields every client shares; RaceReport,
// SliceReport and NullReport embed it.
type Outcome struct {
	// Stats are the interpreter's event counts for the run (including
	// the rollback re-execution, if any).
	Stats interp.Stats
	// CheckEvents counts invariant-check events (optimistic runs).
	CheckEvents uint64
	// RolledBack reports that the speculative run mis-speculated and
	// the results come from the traditional hybrid re-execution.
	RolledBack bool
	// Violation is the structured mis-speculation reason when
	// RolledBack (the first violation the speculative run raised).
	Violation Violation
	// Output is the analyzed program's output.
	Output []int64
	// IC reports the compiled engine's speculative-dispatch activity
	// (inline-cache hits/misses/deopts, fused superinstructions). For a
	// rolled-back run it includes the aborted speculative execution's
	// counts. Zero under the tree-walking engine.
	IC interp.ICStats
}

// Common returns the shared fields, so code generic over the report
// type (the lifecycle runner, adapt's retry loop) can read them.
func (o *Outcome) Common() *Outcome { return o }

// Report is implemented by every client's report type.
type Report interface{ Common() *Outcome }

// Detector is any client's analysis, as code generic over the client
// runs it: OptFT, OptSlice and OptNull, or their hybrid baselines.
type Detector[R Report] interface {
	Run(Execution, RunOptions) (R, error)
}

// outcomeOf is the shared part of a completed run's report.
func outcomeOf(res *interp.Result) Outcome {
	return Outcome{Stats: res.Stats, Output: res.Output, IC: res.IC}
}

// execute runs e under cfg with opts applied.
func execute(cfg interp.Config, e Execution, opts RunOptions) (*interp.Result, error) {
	cfg.Inputs, cfg.Choose = e.Inputs, e.chooser()
	opts.apply(&cfg)
	return interp.Run(cfg)
}

// speculation is one optimistic run as the lifecycle runner sees it:
// the parts of §2's speculate→check→rollback that differ per client.
type speculation[R Report] struct {
	client Client
	// cfg is the predicated configuration; its tracer drives check,
	// whose abort flag the runner installs.
	cfg   interp.Config
	check *checker
	// refute, when non-nil, can reject a run no check aborted (OptFT:
	// races reported while lock instrumentation is elided).
	refute func() Violation
	// verdict builds the report of a speculative run that held.
	verdict func(res *interp.Result) R
	// sound is the rollback target: the traditional hybrid analysis.
	sound func(Execution, RunOptions) (R, error)
}

// run executes one speculative analysis of e. On a violated invariant
// the same recorded execution is re-run under the sound hybrid analysis
// (§2.3), and the report carries the structured violation plus the
// aborted run's work. The adapter, if any, observes the final report.
func (s speculation[R]) run(e Execution, opts RunOptions) (R, error) {
	var rep R
	s.cfg.Abort = s.check.abort
	res, err := execute(s.cfg, e, opts)
	var reason Violation
	switch {
	case errors.Is(err, interp.ErrAborted):
		reason = s.check.first
		if reason.None() {
			// The abort came from outside the checker: the slicer's
			// trace-node limit.
			reason = Violation{Kind: ViolationTraceLimit, Site: -1, Callee: -1, Detail: s.check.abort.Reason()}
		}
	case err != nil:
		return rep, err
	case s.refute != nil:
		reason = s.refute()
	}
	if reason.None() {
		rep = s.verdict(res)
	} else {
		sound, err := s.sound(e, opts)
		if err != nil {
			return rep, fmt.Errorf("core: rollback re-execution failed: %w", err)
		}
		rep = sound
		out := rep.Common()
		out.RolledBack = true
		out.Violation = reason
		out.Stats.Add(res.Stats)
		out.IC.Add(res.IC)
	}
	rep.Common().CheckEvents = s.check.Events
	if opts.Adapt != nil {
		opts.Adapt.Observe(s.client, s.cfg.Prog, e, rep.Common())
	}
	return rep, nil
}

// chooser builds the deterministic chooser for an execution.
func (e Execution) chooser() sched.Chooser { return sched.NewSeeded(e.Seed) }

// ProfileResult is the outcome of the profiling phase.
type ProfileResult struct {
	DB   *invariants.DB
	Runs int // executions profiled before convergence
	// BlockRuns counts, per block ID, how many profiled executions
	// entered the block (for aggressive-invariant construction).
	BlockRuns map[int]int
}

// AggressiveDB returns a copy of the profiled invariants with the
// likely-unreachable-code invariant strengthened per §2.1's
// stability/strength trade-off: blocks visited in strictly fewer than
// minFrac of the profiled executions are *also* assumed unreachable,
// even though profiling did occasionally reach them. The stronger
// assumption elides more instrumentation at the cost of more
// mis-speculations; soundness is unaffected (the violated check still
// rolls back). minFrac = 0 reproduces the standard invariant set;
// minFrac = 1 keeps only blocks visited in every profiled execution.
func (pr *ProfileResult) AggressiveDB(minFrac float64) *invariants.DB {
	db := pr.DB.Clone()
	if minFrac <= 0 || pr.Runs == 0 {
		return db
	}
	threshold := minFrac * float64(pr.Runs)
	for block, runs := range pr.BlockRuns {
		if float64(runs) < threshold {
			db.Visited.Remove(block)
		}
	}
	return db
}

// ProfileOptions configures the profiling phase.
type ProfileOptions struct {
	// MaxRuns bounds the convergence loop.
	MaxRuns int
	// StableWindow is the convergence window (0: default 5).
	StableWindow int
	// Workers bounds the profiling worker pool (<= 0: GOMAXPROCS;
	// 1: sequential). Results are bit-identical for every value.
	Workers int
	// Cache, when non-nil, memoizes per-run invariant databases by
	// content address — repeated sweeps over overlapping profiling
	// sets (Figures 7/8) then re-run nothing.
	Cache *artifacts.Cache
	// Ctx, when non-nil, cancels the profiling loop: it is checked
	// before every profiling run and threaded into each execution, so
	// cancellation takes effect within one scheduling quantum.
	Ctx context.Context
	// Code, when non-nil, is the program's full-instrumentation
	// bytecode image (interp.Compile(prog, interp.Masks{})), shared by
	// every profiling run instead of compiled per run. Long-lived
	// callers (the analysis daemon) pass their stored image; when nil,
	// the profiling entry points compile one image per call, which
	// amortizes across the runs of that call.
	Code *interp.Code
}

// memoRunner wraps profile.Run with cancellation and per-execution
// memoization. The returned databases are clones: the convergence loop
// mutates its merge accumulator, and cached values must stay immutable.
func memoRunner(ctx context.Context, cache *artifacts.Cache, code *interp.Code) profile.Runner {
	if ctx == nil && cache == nil && code == nil {
		return nil
	}
	return func(prog *ir.Program, inputs []int64, seed uint64) (*invariants.DB, error) {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("%w: %v", interp.ErrCanceled, err)
			}
		}
		if cache == nil {
			return profile.RunCoded(ctx, code, prog, inputs, seed)
		}
		v, err := cache.Memo(artifacts.ExecKey(prog, inputs, seed), artifacts.DBCodec(), func() (any, error) {
			return profile.RunCoded(ctx, code, prog, inputs, seed)
		})
		if err != nil {
			return nil, err
		}
		return v.(*invariants.DB).Clone(), nil
	}
}

// Profile learns likely invariants from executions generated by gen,
// running until the invariant set is stable (§6.1: "profile increasing
// numbers of executions until the number of learned dynamic invariants
// stabilizes") or maxRuns executions.
func Profile(prog *ir.Program, gen func(run int) Execution, maxRuns int) (*ProfileResult, error) {
	return ProfileWith(prog, gen, ProfileOptions{MaxRuns: maxRuns, Workers: 1})
}

// ProfileWith is Profile with an explicit worker pool and optional
// per-run memoization. The merge replays the sequential run order, so
// the result is bit-identical to Profile for every worker count.
func ProfileWith(prog *ir.Program, gen func(run int) Execution, o ProfileOptions) (*ProfileResult, error) {
	if o.StableWindow == 0 {
		o.StableWindow = 5
	}
	if o.Code == nil {
		o.Code = interp.Compile(prog, interp.Masks{})
	}
	db, st, err := profile.ConvergeOpt(prog, func(run int) ([]int64, uint64) {
		e := gen(run)
		return e.Inputs, e.Seed
	}, profile.Options{
		MaxRuns:      o.MaxRuns,
		StableWindow: o.StableWindow,
		Workers:      o.Workers,
		Runner:       memoRunner(o.Ctx, o.Cache, o.Code),
	})
	if err != nil {
		return nil, err
	}
	return &ProfileResult{DB: db, Runs: st.Runs, BlockRuns: st.BlockRuns}, nil
}

// ProfileN learns likely invariants from exactly the given executions
// (no convergence loop) — used when the caller wants precise control,
// e.g. the Figure 7/8 profiling sweeps. Runs fan out over the default
// worker pool and merge in run-index order, so the result is
// deterministic and identical to a sequential merge.
func ProfileN(prog *ir.Program, execs []Execution) (*invariants.DB, error) {
	return ProfileNWith(prog, execs, 0, nil)
}

// ProfileNWith is ProfileN with an explicit worker count (<= 0:
// GOMAXPROCS, 1: sequential) and optional per-run memoization.
func ProfileNWith(prog *ir.Program, execs []Execution, workers int, cache *artifacts.Cache) (*invariants.DB, error) {
	pexecs := make([]profile.Exec, len(execs))
	for i, e := range execs {
		pexecs[i] = profile.Exec{Inputs: e.Inputs, Seed: e.Seed}
	}
	code := interp.Compile(prog, interp.Masks{})
	dbs, err := profile.RunAllWith(prog, pexecs, workers, memoRunner(nil, cache, code))
	if err != nil {
		return nil, err
	}
	return invariants.Merge(dbs...), nil
}
