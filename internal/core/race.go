package core

import (
	"oha/internal/artifacts"
	"oha/internal/bitset"
	"oha/internal/ctxs"
	"oha/internal/fasttrack"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/mhp"
	"oha/internal/pointsto"
	"oha/internal/staticrace"
	"oha/internal/vc"
)

// RaceReport is the result of one race-detection run.
type RaceReport struct {
	// Races are the canonical (deduplicated, ordered) race keys.
	Races []fasttrack.Key
	// RacyAddrs are the addresses on which races were detected — the
	// unit at which differently-instrumented FastTrack configurations
	// are equivalent (see fasttrack.Detector.RacyAddrs).
	RacyAddrs []interp.Addr
	// Details carries one representative Race per key.
	Details []fasttrack.Race
	// FTChecks counts FastTrack read/write metadata operations.
	FTChecks uint64
	Outcome
}

// StaticConfig tunes how the static pipelines are computed. The zero
// value is the sequential from-scratch pipeline. Results are
// digest-identical for every configuration, so neither field is part
// of any artifact cache key: a result solved with 8 workers serves a
// sequential consumer, and vice versa. How a speculative run is
// checked and compiled is decided by the invariant database and the
// static result alone, never by this config.
type StaticConfig struct {
	// Workers bounds the parallel points-to and race-pair solvers
	// (0 = GOMAXPROCS, 1 = sequential).
	Workers int
	// Incremental lets consumers (the adapt reconciler, the server job
	// pool) resume from a previous generation's saturated solver state
	// via internal/inc. It has no effect inside this package — the
	// cached constructors here only compute from scratch — but travels
	// with the config so callers thread one value.
	Incremental bool
}

// raceStatic bundles one static race analysis with the masks it
// implies.
type raceStatic struct {
	static *staticrace.Result
	mem    []bool // loads/stores FastTrack must instrument
	sync   []bool // lock/unlock FastTrack must instrument
}

// analyzeRaceStatic runs the (sound or predicated) Chord-style static
// pipeline and derives instrumentation masks. With a non-nil cache the
// points-to, MHP, and static-race stages are memoized by content
// address; the masks are rebuilt fresh on every call because callers
// (ValidateCustomSync) mutate them per instance.
func analyzeRaceStatic(prog *ir.Program, db *invariants.DB, cache *artifacts.Cache, cfg StaticConfig) (*raceStatic, error) {
	v, err := cache.Memo(artifacts.Key(artifacts.KindStaticRace, prog, db, 0, "ci"), artifacts.RaceCodec(prog), func() (any, error) {
		pt, err := pointsToCI(prog, db, cache, cfg)
		if err != nil {
			return nil, err
		}
		m, err := mhpOf(prog, pt, db, cache)
		if err != nil {
			return nil, err
		}
		return staticrace.AnalyzeParallel(prog, pt, m, db, cfg.Workers), nil
	})
	if err != nil {
		return nil, err
	}
	sr := v.(*staticrace.Result)

	mem, sync := sr.Masks(db)
	return &raceStatic{static: sr, mem: mem, sync: sync}, nil
}

// pointsToCI returns the (memoized) context-insensitive points-to
// result for the race pipeline.
func pointsToCI(prog *ir.Program, db *invariants.DB, cache *artifacts.Cache, cfg StaticConfig) (*pointsto.Result, error) {
	v, err := cache.Memo(artifacts.Key(artifacts.KindPointsTo, prog, db, 0, "ci"), artifacts.PointsToCodec(prog, db), func() (any, error) {
		return pointsto.AnalyzeParallel(prog, ctxs.NewCI(prog), db, cfg.Workers)
	})
	if err != nil {
		return nil, err
	}
	return v.(*pointsto.Result), nil
}

// mhpOf returns the (memoized) may-happen-in-parallel result. pt must
// be the pointsToCI result for the same (prog, db), which the key
// already determines.
func mhpOf(prog *ir.Program, pt *pointsto.Result, db *invariants.DB, cache *artifacts.Cache) (*mhp.Result, error) {
	v, err := cache.Memo(artifacts.Key(artifacts.KindMHP, prog, db, 0, "ci"), artifacts.MHPCodec(prog), func() (any, error) {
		return mhp.Analyze(prog, pt, db), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*mhp.Result), nil
}

// optTracer is OptFT's tracer: FastTrack plus the invariant checker,
// fused into one dispatch so the optimistic configuration pays no
// fan-out overhead over the hybrid one. FastTrack sees sync events
// only at its own sites (the interpreter's SyncMask is the union of
// FastTrack's sites and the checks' sites). A nil checker is the
// custom-sync validation run, which wants raw FastTrack reports.
type optTracer struct {
	interp.NopTracer
	det     *fasttrack.Detector
	checker *raceChecker
	sync    []bool // FastTrack's sync sites
}

// FastState implements interp.FastTracer. Memory events route only to
// the detector (the invariant checker consumes sync/call/block events,
// and those always drain the ring before delivery), so exposing the
// detector's shadow state — batching included — preserves the exact
// event order both consumers observe.
func (o *optTracer) FastState() *interp.FastState { return o.det.FastState() }

// FlushMem implements interp.FastTracer (see FastState).
func (o *optTracer) FlushMem(evs []interp.MemEvent) { o.det.FlushMem(evs) }

func (o *optTracer) Load(t vc.TID, in *ir.Instr, addr interp.Addr, v int64) {
	o.det.Load(t, in, addr, v)
}

func (o *optTracer) Store(t vc.TID, in *ir.Instr, addr interp.Addr, v int64) {
	o.det.Store(t, in, addr, v)
}

func (o *optTracer) Lock(t vc.TID, in *ir.Instr, addr interp.Addr) {
	if o.sync[in.ID] {
		o.det.Lock(t, in, addr)
	}
	if o.checker != nil {
		o.checker.Lock(t, in, addr)
	}
}

func (o *optTracer) Unlock(t vc.TID, in *ir.Instr, addr interp.Addr) {
	if o.sync[in.ID] {
		o.det.Unlock(t, in, addr)
	}
}

func (o *optTracer) Call(t vc.TID, in *ir.Instr, callee *ir.Function, cr, ce interp.FrameID) {
	if o.checker != nil {
		o.checker.Call(t, in, callee, cr, ce)
	}
}

func (o *optTracer) Spawn(t vc.TID, in *ir.Instr, c vc.TID, f interp.FrameID, fn *ir.Function) {
	o.det.Spawn(t, in, c, f, fn)
	if o.checker != nil {
		o.checker.Spawn(t, in, c, f, fn)
	}
}

func (o *optTracer) Join(t vc.TID, in *ir.Instr, c vc.TID) {
	o.det.Join(t, in, c)
}

func (o *optTracer) BlockEnter(t vc.TID, b *ir.Block) {
	if o.checker != nil {
		o.checker.BlockEnter(t, b)
	}
}

func raceReport(det *fasttrack.Detector, res *interp.Result) *RaceReport {
	return &RaceReport{
		Races:     det.RaceKeys(),
		RacyAddrs: det.RacyAddrs(),
		Details:   det.Races(),
		FTChecks:  det.Checks,
		Outcome:   outcomeOf(res),
	}
}

// RunPlain executes without any analysis — the "framework overhead"
// baseline of Figure 5.
func RunPlain(prog *ir.Program, e Execution, opts RunOptions) (*interp.Result, error) {
	return execute(interp.Config{Prog: prog}, e, opts)
}

// RunFastTrack executes under full FastTrack instrumentation (the
// unoptimized baseline).
func RunFastTrack(prog *ir.Program, e Execution, opts RunOptions) (*RaceReport, error) {
	det := fasttrack.New()
	res, err := execute(interp.Config{Prog: prog, Tracer: det, BlockMask: make([]bool, len(prog.Blocks))}, e, opts)
	if err != nil {
		return nil, err
	}
	return raceReport(det, res), nil
}

// HybridFT is the traditional hybrid baseline: FastTrack optimized by
// the sound static race analysis.
type HybridFT struct {
	Prog   *ir.Program
	Static *staticrace.Result
	rs     *raceStatic

	// blockMask is the stored all-false block mask (no BlockEnter
	// events) and code the bytecode image compiled from exactly the
	// masks Run installs, so repeated runs skip recompilation.
	blockMask []bool
	code      *interp.Code
}

// NewHybridFTStatic runs the sound static analysis, memoizing static
// artifacts in cache (nil: recompute). The result is digest-identical
// for every configuration; only the solve latency changes.
func NewHybridFTStatic(prog *ir.Program, cache *artifacts.Cache, cfg StaticConfig) (*HybridFT, error) {
	rs, err := analyzeRaceStatic(prog, nil, cache, cfg)
	if err != nil {
		return nil, err
	}
	h := &HybridFT{Prog: prog, Static: rs.static, rs: rs}
	h.blockMask = make([]bool, len(prog.Blocks))
	// The sound image assumes no invariants: no IC seeds (nil db).
	h.code = compiledCode(prog, interp.Masks{Mem: rs.mem, Sync: rs.sync, Block: h.blockMask}, CompileOptionsFor(nil), cache)
	return h, nil
}

// Run executes one analysis under the hybrid instrumentation.
func (h *HybridFT) Run(e Execution, opts RunOptions) (*RaceReport, error) {
	det := fasttrack.New()
	res, err := execute(interp.Config{
		Prog:      h.Prog,
		Tracer:    det,
		MemMask:   h.rs.mem,
		SyncMask:  h.rs.sync,
		BlockMask: h.blockMask,
		Code:      h.code,
	}, e, opts)
	if err != nil {
		return nil, err
	}
	return raceReport(det, res), nil
}

// OptFT is the optimistic hybrid race detector (§4): FastTrack
// optimized by the predicated static analysis, run speculatively with
// invariant checks, rolling back to the traditional hybrid analysis on
// mis-speculation.
type OptFT struct {
	Prog *ir.Program
	DB   *invariants.DB
	// Pred and Sound are the predicated and sound static results.
	Pred  *staticrace.Result
	Sound *HybridFT

	pred *raceStatic
	// unified interpreter masks (FastTrack sites ∪ check sites)
	syncMask  []bool
	blockMask []bool

	// cache memoizes compiled images; code is the speculative run's
	// image, valCode / valBlockMask the ones for validation runs
	// (runWithoutRollback, which installs the raw FastTrack sync mask
	// and no checks). setElidable mutates the masks in place, so both
	// images are re-derived there.
	cache        *artifacts.Cache
	code         *interp.Code
	valCode      *interp.Code
	valBlockMask []bool
}

// NewOptFTStatic runs both static analyses (predicated for
// speculation, sound for rollback) and prepares masks. The db should
// already contain a validated ElidableLocks set (see
// ValidateCustomSync); with an empty set no lock instrumentation is
// elided. Static artifacts are memoized in cache (nil: recompute);
// masks and derived state are always private to the returned
// instance. With a warm cache — in particular one prewarmed by
// inc.Reanalyze after an adaptive refinement — no static solving
// happens here at all.
func NewOptFTStatic(prog *ir.Program, db *invariants.DB, cache *artifacts.Cache, cfg StaticConfig) (*OptFT, error) {
	pred, err := analyzeRaceStatic(prog, db, cache, cfg)
	if err != nil {
		return nil, err
	}
	sound, err := NewHybridFTStatic(prog, cache, cfg)
	if err != nil {
		return nil, err
	}
	o := &OptFT{Prog: prog, DB: db, Pred: pred.static, Sound: sound, pred: pred}
	o.blockMask = checkedBlockMask(prog, db)
	// Sync events: FastTrack's sites plus the guarding-lock check
	// sites (which need the cheap address check even when FastTrack's
	// lock processing is elided).
	o.syncMask = make([]bool, len(prog.Instrs))
	copy(o.syncMask, pred.sync)
	for pair := range db.MustAliasLocks {
		o.syncMask[pair.A] = true
		o.syncMask[pair.B] = true
	}
	o.cache = cache
	o.valBlockMask = make([]bool, len(prog.Blocks))
	o.recompile()
	return o, nil
}

// recompile re-derives the compiled images from the current masks.
// Both speculative images (the checked run and the validation run) are
// IC-seeded from the database's likely callee sets: an inline cache is
// semantically transparent (a miss just resolves generically), so
// seeding needs no checker support — the checked run's callee-set
// violation is raised by the checker on the Call event either way.
func (o *OptFT) recompile() {
	opts := CompileOptionsFor(o.DB)
	o.code = compiledCode(o.Prog, interp.Masks{Mem: o.pred.mem, Sync: o.syncMask, Block: o.blockMask}, opts, o.cache)
	o.valCode = compiledCode(o.Prog, interp.Masks{Mem: o.pred.mem, Sync: o.pred.sync, Block: o.valBlockMask}, opts, o.cache)
}

// CodeDigest returns the content digest of the speculative run's
// compiled configuration (instrumentation masks, IC seeds, fusion) —
// the fingerprint the adaptive speculation manager records per
// generation. Refining a callee-set fact changes the digest.
func (o *OptFT) CodeDigest() string { return o.code.ConfigDigest() }

// ElidedAccesses returns how many loads/stores the predicated analysis
// allows OptFT to skip.
func (o *OptFT) ElidedAccesses() int {
	n := 0
	for _, in := range o.Prog.Instrs {
		if in.IsMemAccess() && !o.pred.mem[in.ID] {
			n++
		}
	}
	return n
}

// Run executes one speculative analysis of e, rolling back to the
// traditional hybrid analysis on invariant violation (or on any race
// report while lock instrumentation is elided, per §4.2.4).
func (o *OptFT) Run(e Execution, opts RunOptions) (*RaceReport, error) {
	det := fasttrack.New()
	ck := newRaceChecker(o.Prog, o.DB, &interp.Abort{})
	return speculation[*RaceReport]{
		client: raceClient{},
		cfg: interp.Config{
			Prog:      o.Prog,
			Tracer:    &optTracer{det: det, checker: ck, sync: o.pred.sync},
			MemMask:   o.pred.mem,
			SyncMask:  o.syncMask,
			BlockMask: o.blockMask,
			Code:      o.code,
		},
		check: &ck.checker,
		refute: func() Violation {
			// Race reports are potential mis-speculations when lock
			// instrumentation was elided (custom synchronization may
			// have been missed): re-check under the sound analysis.
			if det.HasRaces() && !o.DB.ElidableLocks.IsEmpty() {
				return Violation{Kind: ViolationElidedLockRace, Site: -1, Callee: -1}
			}
			return Violation{}
		},
		verdict: func(res *interp.Result) *RaceReport { return raceReport(det, res) },
		sound:   o.Sound.Run,
	}.run(e, opts)
}

// ValidateCustomSync performs the iterative no-custom-synchronization
// profiling of §4.2.4: starting from the lock/unlock sites the
// predicated static analysis proposes to elide, it runs the optimistic
// detector on the profiling executions and compares race reports with
// the sound detector; if elision introduces false races, the
// instrumentation is restored lock-object group by group until the
// reports agree. The validated set is stored in o.DB.ElidableLocks
// (and reflected in the run masks).
func (o *OptFT) ValidateCustomSync(execs []Execution, opts RunOptions) error {
	tentative := o.Pred.ElidableSyncs.Clone()
	for {
		o.setElidable(tentative)
		bad := false
		for _, e := range execs {
			optRep, err := o.runWithoutRollback(e, opts)
			if err != nil {
				return err
			}
			soundRep, err := o.Sound.Run(e, opts)
			if err != nil {
				return err
			}
			if !sameRaceKeys(optRep.Races, soundRep.Races) {
				bad = true
				break
			}
		}
		if !bad || tentative.IsEmpty() {
			return nil
		}
		// Restore instrumentation on one lock-site group and retry.
		restore := tentative.Min()
		tentative.Remove(restore)
		// Also restore the sites sharing an abstract lock object —
		// approximated here by removing unlocks in the same function.
		for _, in := range o.Prog.Instrs {
			if (in.Op == ir.OpLock || in.Op == ir.OpUnlock) &&
				in.Block.Fn == o.Prog.Instrs[restore].Block.Fn {
				tentative.Remove(in.ID)
			}
		}
	}
}

// setElidable updates the elided-lock set and derived masks.
func (o *OptFT) setElidable(set *bitset.Set) {
	o.DB.ElidableLocks = set.Clone()
	for _, in := range o.Prog.Instrs {
		if in.Op == ir.OpLock || in.Op == ir.OpUnlock {
			o.pred.sync[in.ID] = !set.Has(in.ID)
			o.syncMask[in.ID] = o.pred.sync[in.ID]
		}
	}
	for pair := range o.DB.MustAliasLocks {
		o.syncMask[pair.A] = true
		o.syncMask[pair.B] = true
	}
	o.recompile()
}

// runWithoutRollback runs the optimistic configuration but never rolls
// back — used by custom-sync validation, which wants the raw
// (possibly false) race reports.
func (o *OptFT) runWithoutRollback(e Execution, opts RunOptions) (*RaceReport, error) {
	det := fasttrack.New()
	res, err := execute(interp.Config{
		Prog:      o.Prog,
		Tracer:    &optTracer{det: det, sync: o.pred.sync},
		MemMask:   o.pred.mem,
		SyncMask:  o.pred.sync,
		BlockMask: o.valBlockMask,
		Code:      o.valCode,
	}, e, opts)
	if err != nil {
		return nil, err
	}
	return raceReport(det, res), nil
}

func sameRaceKeys(a, b []fasttrack.Key) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SameRaces reports whether two runs detected races on exactly the
// same memory addresses — the equivalence FastTrack guarantees across
// instrumentation configurations (the exact access-pair attribution
// within one racy variable may differ with the metadata state; see
// fasttrack.Key). Both reports must come from the same Execution.
func SameRaces(a, b *RaceReport) bool {
	if len(a.RacyAddrs) != len(b.RacyAddrs) {
		return false
	}
	for i := range a.RacyAddrs {
		if a.RacyAddrs[i] != b.RacyAddrs[i] {
			return false
		}
	}
	return true
}

// RunDJIT executes under the DJIT+-style full-vector-clock detector —
// the ablation baseline for FastTrack's epoch optimization.
func RunDJIT(prog *ir.Program, e Execution, opts RunOptions) (*RaceReport, error) {
	det := fasttrack.NewDJIT()
	res, err := execute(interp.Config{Prog: prog, Tracer: det, BlockMask: make([]bool, len(prog.Blocks))}, e, opts)
	if err != nil {
		return nil, err
	}
	return &RaceReport{
		RacyAddrs: det.RacyAddrs(),
		FTChecks:  det.Checks,
		Outcome:   Outcome{Stats: res.Stats, Output: res.Output},
	}, nil
}
