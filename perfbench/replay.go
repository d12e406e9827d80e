package main

import (
	"context"
	"fmt"
	"time"

	"oha/internal/adapt"
	"oha/internal/artifacts"
	"oha/internal/core"
	"oha/internal/ctxs"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/mhp"
	"oha/internal/nullcheck"
	"oha/internal/pointsto"
	"oha/internal/server"
	"oha/internal/staticrace"
)

// sliceBudget is the daemon's default context-sensitive slicing budget.
const sliceBudget = 4096

// replayer re-executes a recorded job stream by calling each layer's
// public entry points directly, in the order a served job uses them,
// with a span around every call. Its artifact cache and invariant
// store start as the daemon's did and evolve with the same jobs, so a
// call that was a cache hit in the daemon is a hit here too.
//
// Static results with exported types (points-to, MHP, race pairs, null
// proofs) are solved here under their own spans and stored under the
// cache keys core uses, so the core constructor that follows finds
// them and does only mask derivation and image compilation. The slice
// pipeline's cached types are internal to core, so on a miss the
// OptSlice constructor is the span (staticslice.solve, which then also
// covers that job's image compile).
type replayer struct {
	tr       *tracer
	cache    *artifacts.Cache
	store    *server.InvariantStore
	cfg      core.StaticConfig
	progs    map[*program]*ir.Program
	managers map[string]*adapt.Manager

	// per-job observations of the measured replay
	steps      uint64
	analysis   int
	elided     []float64
	images     map[*program][2]int // image instrs, fused instrs
	replayedMS map[int]float64     // sample index → replay duration, probes excluded
	probe      time.Duration       // probe time inside the current job
	refine     *adapt.Manager      // reconcile left pending by the current job
}

func newReplayer(tr *tracer, cacheEntries int) *replayer {
	cache := artifacts.New("")
	if cacheEntries > 0 {
		cache.Bound(cacheEntries, 0)
	}
	store, err := server.OpenInvariantStore("")
	if err != nil {
		panic(err) // an in-memory store cannot fail to open
	}
	return &replayer{
		tr: tr, cache: cache, store: store,
		cfg:        core.StaticConfig{Incremental: true},
		progs:      map[*program]*ir.Program{},
		managers:   map[string]*adapt.Manager{},
		images:     map[*program][2]int{},
		replayedMS: map[int]float64{},
	}
}

// span runs fn under a span named name; job < 0 marks warm-up work
// that is executed but not recorded.
func (r *replayer) span(name string, job, parent int, fn func() error) (int, error) {
	if job < 0 {
		return -1, fn()
	}
	i := r.tr.begin(name, job, parent)
	err := fn()
	r.tr.end(i)
	return i, err
}

// replay re-executes one job. job is the sample index (-1: warm-up).
func (r *replayer) replay(job int, j *job) error {
	if job >= 0 {
		r.countImage(j.prog)
	}
	start := time.Now()
	root := -1
	if job >= 0 {
		root = r.tr.begin("replay.job", job, -1)
	}
	r.probe, r.refine = 0, nil
	err := r.replayJob(job, root, j)
	if root >= 0 {
		r.tr.end(root)
		r.replayedMS[job] = ms(time.Since(start) - r.probe)
	}
	if err == nil && r.refine != nil {
		// A root span of its own, like the daemon's refine job: it
		// is not part of the job's share split.
		_, err = r.span("adapt.refine", job, -1, func() error {
			_, err := r.refine.Reconcile(context.Background())
			return err
		})
	}
	return err
}

// countImage records the size of the program's uninstrumented image
// and its fused instructions, once per program, outside any span.
func (r *replayer) countImage(p *program) {
	if _, ok := r.images[p]; ok {
		return
	}
	prog, err := p.compiled()
	if err != nil {
		return // the replay's own compile reports it
	}
	code := interp.CompileWith(prog, interp.Masks{}, interp.CompileOptions{})
	r.images[p] = [2]int{code.Len(), code.FusedInstrs()}
}

func (r *replayer) replayJob(job, root int, j *job) error {
	p, ok := r.progs[j.prog]
	if !ok {
		if _, err := r.span("lang.compile", job, root, func() (err error) {
			p, err = lang.Compile(j.prog.source)
			return err
		}); err != nil {
			return err
		}
		r.progs[j.prog] = p
	}
	req := j.req
	if req.Kind == "profile" {
		return r.profile(job, root, p, j)
	}
	var db *invariants.DB
	var version int
	if _, err := r.span("invariants.get", job, root, func() error {
		var ok bool
		if db, version, ok = r.store.Get(req.InvariantsID, 0); !ok {
			return fmt.Errorf("replay: no invariants %q", req.InvariantsID)
		}
		return nil
	}); err != nil {
		return err
	}
	e := j.exec()
	if job >= 0 {
		r.analysis++
	}
	if req.Adapt {
		return r.adaptRun(job, root, p, db, fmt.Sprintf("%s@%d", req.InvariantsID, version), req.Kind, e)
	}
	switch req.Kind {
	case "race":
		return r.race(job, root, p, db, e)
	case "nullcheck":
		return r.null(job, root, p, db, e)
	}
	return r.slice(job, root, p, db, e)
}

func (r *replayer) profile(job, root int, p *ir.Program, j *job) error {
	var pr *core.ProfileResult
	if _, err := r.span("profile.job", job, root, func() (err error) {
		pr, err = core.ProfileWith(p, func(run int) core.Execution {
			return core.Execution{Inputs: j.req.Inputs, Seed: uint64(run + 1)}
		}, core.ProfileOptions{MaxRuns: j.req.Runs, Workers: 1, Cache: r.cache, Code: core.BaseImage(p, r.cache)})
		return err
	}); err != nil {
		return err
	}
	name, op := "invariants.put", r.store.PutFor
	if j.req.Merge {
		name, op = "invariants.merge", r.store.MergeFor
	}
	_, err := r.span(name, job, root, func() error {
		_, err := op(j.req.SaveAs, j.prog.id, pr.DB)
		return err
	})
	return err
}

// memo stores an already computed artifact under key.
func (r *replayer) memo(key string, v any) {
	r.cache.Memo(key, nil, func() (any, error) { return v, nil }) //nolint:errcheck // compute cannot fail
}

func (r *replayer) pointsTo(job, root int, p *ir.Program, db *invariants.DB) (*pointsto.Result, error) {
	key := artifacts.Key(artifacts.KindPointsTo, p, db, 0, "ci")
	if v, ok := r.cache.Peek(key); ok {
		return v.(*pointsto.Result), nil
	}
	var pt *pointsto.Result
	_, err := r.span("pointsto.solve", job, root, func() (err error) {
		pt, err = pointsto.AnalyzeParallel(p, ctxs.NewCI(p), db, r.cfg.Workers)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.memo(key, pt)
	return pt, nil
}

// solveRace solves the race pipeline for (p, db) if the cache lacks it.
func (r *replayer) solveRace(job, root int, p *ir.Program, db *invariants.DB) (*staticrace.Result, error) {
	key := artifacts.Key(artifacts.KindStaticRace, p, db, 0, "ci")
	if v, ok := r.cache.Peek(key); ok {
		return v.(*staticrace.Result), nil
	}
	pt, err := r.pointsTo(job, root, p, db)
	if err != nil {
		return nil, err
	}
	mkey := artifacts.Key(artifacts.KindMHP, p, db, 0, "ci")
	var m *mhp.Result
	if v, ok := r.cache.Peek(mkey); ok {
		m = v.(*mhp.Result)
	} else {
		r.span("mhp.solve", job, root, func() error { m = mhp.Analyze(p, pt, db); return nil }) //nolint:errcheck // cannot fail
		r.memo(mkey, m)
	}
	var sr *staticrace.Result
	r.span("staticrace.solve", job, root, func() error { //nolint:errcheck // cannot fail
		sr = staticrace.AnalyzeParallel(p, pt, m, db, r.cfg.Workers)
		return nil
	})
	r.memo(key, sr)
	return sr, nil
}

// solveNull solves the null proof for (p, db) if the cache lacks it.
func (r *replayer) solveNull(job, root int, p *ir.Program, db *invariants.DB) error {
	key := artifacts.Key(artifacts.KindNullProof, p, db, 0, "ci")
	if _, ok := r.cache.Peek(key); ok {
		return nil
	}
	pt, err := r.pointsTo(job, root, p, db)
	if err != nil {
		return err
	}
	var res *nullcheck.Result
	r.span("nullcheck.proof", job, root, func() error { res = nullcheck.Analyze(p, pt, db); return nil }) //nolint:errcheck // cannot fail
	r.memo(key, res)
	return nil
}

// construct runs a core constructor; with its static inputs already
// cached, a cache miss inside it is an image compile.
func (r *replayer) construct(job, root int, missName string, fn func() error) error {
	before := r.cache.Stats().Misses
	i, err := r.span("core.construct", job, root, fn)
	if i >= 0 && r.cache.Stats().Misses > before {
		r.tr.spans[i].Name = missName
	}
	return err
}

// run times the speculative run. A rolled-back run's sound
// re-execution happens inside it; its cost is measured by running the
// sound configuration once more (a replay.probe span, kept out of the
// share table) and recorded as a core.rollback child at the end of the
// run span.
func (r *replayer) run(job, root int, fn func() (rolledBack bool, steps uint64, err error), sound func() error) error {
	var rolled bool
	var steps uint64
	i, err := r.span("interp.run", job, root, func() (err error) {
		rolled, steps, err = fn()
		return err
	})
	if err != nil || job < 0 {
		return err
	}
	r.steps += steps
	if rolled {
		t := time.Now()
		if _, err := r.span("replay.probe", job, root, sound); err != nil {
			return err
		}
		d := time.Since(t)
		r.probe += d
		end := r.tr.spans[i].End
		start := end.Add(-d)
		if start.Before(r.tr.spans[i].Start) {
			start = r.tr.spans[i].Start
		}
		r.tr.add("core.rollback", job, i, start, end)
	}
	return nil
}

func (r *replayer) race(job, root int, p *ir.Program, db *invariants.DB, e core.Execution) error {
	sr, err := r.solveRace(job, root, p, db)
	if err != nil {
		return err
	}
	if _, err := r.solveRace(job, root, p, nil); err != nil {
		return err
	}
	r.span("staticrace.masks", job, root, func() error { sr.Masks(db); return nil }) //nolint:errcheck // cannot fail
	var det *core.OptFT
	if err := r.construct(job, root, "interp.compile", func() (err error) {
		det, err = core.NewOptFTStatic(p, db, r.cache, r.cfg)
		return err
	}); err != nil {
		return err
	}
	r.recordElided(job, p, det)
	return r.run(job, root, func() (bool, uint64, error) {
		rep, err := det.Run(e, core.RunOptions{})
		if err != nil {
			return false, 0, err
		}
		return rep.RolledBack, rep.Stats.Steps, nil
	}, func() error { _, err := det.Sound.Run(e, core.RunOptions{}); return err })
}

// recordElided records the share of p's memory accesses whose checks
// det elides.
func (r *replayer) recordElided(job int, p *ir.Program, det *core.OptFT) {
	if job < 0 {
		return
	}
	mem := 0
	for _, in := range p.Instrs {
		if in.IsMemAccess() {
			mem++
		}
	}
	if mem > 0 {
		r.elided = append(r.elided, float64(det.ElidedAccesses())/float64(mem))
	}
}

func (r *replayer) null(job, root int, p *ir.Program, db *invariants.DB, e core.Execution) error {
	if err := r.solveNull(job, root, p, db); err != nil {
		return err
	}
	if err := r.solveNull(job, root, p, nil); err != nil {
		return err
	}
	var det *core.OptNull
	if err := r.construct(job, root, "interp.compile", func() (err error) {
		det, err = core.NewOptNullStatic(p, db, r.cache, r.cfg)
		return err
	}); err != nil {
		return err
	}
	return r.run(job, root, func() (bool, uint64, error) {
		rep, err := det.Run(e, core.RunOptions{})
		if err != nil {
			return false, 0, err
		}
		return rep.RolledBack, rep.Stats.Steps, nil
	}, func() error { _, err := det.Sound.Run(e, core.RunOptions{}); return err })
}

func (r *replayer) slice(job, root int, p *ir.Program, db *invariants.DB, e core.Execution) error {
	crit := lastPrint(p)
	if crit == nil {
		return fmt.Errorf("replay: program has no print to slice from")
	}
	var sl *core.OptSlice
	if err := r.construct(job, root, "staticslice.solve", func() (err error) {
		sl, err = core.NewOptSliceCached(p, db, crit, sliceBudget, r.cache)
		return err
	}); err != nil {
		return err
	}
	return r.run(job, root, func() (bool, uint64, error) {
		rep, err := sl.Run(e, core.RunOptions{})
		if err != nil {
			return false, 0, err
		}
		return rep.RolledBack, rep.Stats.Steps, nil
	}, func() error { _, err := sl.Sound.Run(e, core.RunOptions{}); return err })
}

// adaptRun replays adapt.Manager.Run{Race,Slice,Null}: run under the
// current generation; on a refinable rollback, reconcile and retry.
func (r *replayer) adaptRun(job, root int, p *ir.Program, db *invariants.DB, key, kind string, e core.Execution) error {
	m, ok := r.managers[key]
	if !ok {
		r.span("adapt.new", job, root, func() error { //nolint:errcheck // cannot fail
			m = adapt.New(p, db, adapt.Options{Cache: r.cache, Static: r.cfg})
			return nil
		})
		r.managers[key] = m
	}
	opts := core.RunOptions{Adapt: m}
	for {
		var runFn func() (bool, uint64, error)
		var soundFn func() error
		var viol core.ViolationKind
		if _, err := r.span("adapt.generation", job, root, func() error {
			switch kind {
			case "race":
				det, _, err := m.Race()
				if err != nil {
					return err
				}
				r.recordElided(job, p, det)
				runFn = func() (bool, uint64, error) {
					rep, err := det.Run(e, opts)
					if err != nil {
						return false, 0, err
					}
					viol = rep.Violation.Kind
					return rep.RolledBack, rep.Stats.Steps, nil
				}
				soundFn = func() error { _, err := det.Sound.Run(e, core.RunOptions{}); return err }
			case "nullcheck":
				det, _, err := m.Null()
				if err != nil {
					return err
				}
				runFn = func() (bool, uint64, error) {
					rep, err := det.Run(e, opts)
					if err != nil {
						return false, 0, err
					}
					viol = rep.Violation.Kind
					return rep.RolledBack, rep.Stats.Steps, nil
				}
				soundFn = func() error { _, err := det.Sound.Run(e, core.RunOptions{}); return err }
			default:
				sl, _, err := m.Slice(lastPrint(p), sliceBudget)
				if err != nil {
					return err
				}
				runFn = func() (bool, uint64, error) {
					rep, err := sl.Run(e, opts)
					if err != nil {
						return false, 0, err
					}
					viol = rep.Violation.Kind
					return rep.RolledBack, rep.Stats.Steps, nil
				}
				soundFn = func() error { _, err := sl.Sound.Run(e, core.RunOptions{}); return err }
			}
			return nil
		}); err != nil {
			return err
		}
		rolled := false
		if err := r.run(job, root, func() (bool, uint64, error) {
			rb, steps, err := runFn()
			rolled = rb
			return rb, steps, err
		}, soundFn); err != nil {
			return err
		}
		if !rolled || !adapt.Refinable(viol) {
			break
		}
		var swapped bool
		if _, err := r.span("adapt.reconcile", job, root, func() (err error) {
			swapped, err = m.Reconcile(context.Background())
			return err
		}); err != nil {
			return err
		}
		if !swapped {
			break
		}
	}
	// The daemon hands a reconcile still pending after the job to a
	// background refine job (server.submitRefine), outside the job's
	// run interval; replay runs it after the job, outside its spans.
	if m.Pending() {
		r.refine = m
	}
	return nil
}
