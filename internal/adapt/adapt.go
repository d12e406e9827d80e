// Package adapt closes the optimistic-hybrid-analysis feedback loop
// the paper leaves to the deployment (§2.1's stability/strength
// trade-off, §3's recovery discussion): when a speculative run
// mis-speculates, the violated likely invariant is demoted, the
// predicated static analysis re-runs without it, and a weaker-but-
// stabler configuration is hot-swapped in — so one violation never
// costs a second rollback.
//
// The package is three cooperating pieces:
//
//   - a violation ledger: structured core.Violation records from the
//     rollbacks of every optimistic client (OptFT, OptSlice, OptNull),
//     accumulated into per-invariant-fact violation counters and
//     per-generation success statistics;
//   - a refinement policy: past Policy.Threshold observations of one
//     fact (default 1, per the paper), the fact is removed from a
//     derived invariants.DB generation using the merge-respecting
//     weaken helpers (Refine);
//   - a re-analysis reconciler: Reconcile recomputes the predicated
//     static artifacts and compiled elision masks for the refined DB
//     through the content-addressed artifact cache — sound artifacts
//     (keyed on the nil DB) stay warm; only the invalidated predicated
//     kinds re-solve — and hot-swaps the new generation in without
//     blocking in-flight runs (immutable snapshots behind an atomic
//     pointer; old detectors finish serving their runs untouched).
//
// Determinism: given the same program, executions, and schedule seeds,
// the sequence of refinement generations (refined-DB serializations
// and compiled-mask digests) is a pure function of the violations
// observed, which the deterministic interpreter makes a pure function
// of the inputs — so the generation history is bit-identical across
// runs and worker counts.
package adapt

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"oha/internal/artifacts"
	"oha/internal/core"
	"oha/internal/inc"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
)

// Policy configures when the manager refines.
type Policy struct {
	// Threshold is the number of observed violations of one invariant
	// fact before it is refined away. Default 1 — the paper's stance: a
	// fact that misfired once will misfire again, and a rollback is
	// expensive enough to never pay twice.
	Threshold int
	// MaxGenerations caps deployed configurations, including the base
	// generation (default 64). At the cap the manager keeps serving
	// (and counting) but stops refining.
	MaxGenerations int
}

func (p Policy) threshold() int {
	if p.Threshold <= 0 {
		return 1
	}
	return p.Threshold
}

func (p Policy) maxGenerations() int {
	if p.MaxGenerations <= 0 {
		return 64
	}
	return p.MaxGenerations
}

// Options configures a Manager.
type Options struct {
	Policy Policy
	// Cache memoizes static artifacts across generations (strongly
	// recommended: it is what makes re-analysis incremental). nil
	// recomputes everything per generation.
	Cache *artifacts.Cache
	// Metrics, when non-nil, records ledger and reconciler activity.
	Metrics *Metrics
	// Static configures the static re-analysis pipeline: parallel
	// solver workers and whether Reconcile may resume incrementally
	// from the previous generation's saturated solver state (requires
	// Cache; the solver-state bundle lives there).
	Static core.StaticConfig
	// Inc, when non-nil, receives the static pipeline's per-phase
	// latencies and the incremental constraint-reuse ratio.
	Inc *inc.Metrics
}

// GenerationRecord describes one deployed configuration.
type GenerationRecord struct {
	// Generation numbers configurations from 1 (the base DB).
	Generation int `json:"generation"`
	// Causes are the violations whose refinements this generation
	// deployed (empty for the base generation). Several violations
	// observed before one reconcile fold into one generation.
	Causes []core.Violation `json:"causes,omitempty"`
	// DBDigest is the SHA-256 of the generation's invariant database
	// serialization; MaskDigest the content digest of the race
	// detector's compiled configuration — instrumentation masks plus
	// inline-cache seeds and fusion setting (set once the detector is
	// built). Together they fingerprint the deployed configuration for
	// the determinism guarantee; refining a callee-set fact changes
	// both.
	DBDigest   string `json:"db_digest"`
	MaskDigest string `json:"mask_digest,omitempty"`
	// ResolveSeconds is the re-analysis latency that produced this
	// generation (0 for the base).
	ResolveSeconds float64 `json:"resolve_seconds"`
	// StaticMode records how the generation's static artifacts were
	// computed: "cached", "incremental", or "scratch" (empty for the
	// base generation and for cache-less managers).
	StaticMode string `json:"static_mode,omitempty"`
	// ReuseRatio is the fraction of points-to constraints inherited
	// from the previous generation's saturated solver state (0 outside
	// incremental mode).
	ReuseRatio float64 `json:"reuse_ratio,omitempty"`
}

// Status is a consistent snapshot of the manager, served by the
// daemon's GET /speculation.
type Status struct {
	Generation          int     `json:"generation"`
	Runs                uint64  `json:"runs"`
	Rollbacks           uint64  `json:"rollbacks"`
	SuccessRate         float64 `json:"success_rate"`
	PostRefineRuns      uint64  `json:"post_refine_runs"`
	PostRefineRollbacks uint64  `json:"post_refine_rollbacks"`
	// ViolationsByKind counts observed violations per invariant kind.
	ViolationsByKind map[core.ViolationKind]uint64 `json:"violations_by_kind,omitempty"`
	// Clients breaks runs and rollbacks down per analysis client
	// (race, slice, nullcheck), keyed by core.Client name.
	Clients map[string]ClientStats `json:"clients,omitempty"`
	// PendingReconcile reports that refinements await a Reconcile.
	PendingReconcile bool `json:"pending_reconcile"`
	// StaticMode and IncReuseRatio mirror the latest non-base
	// generation's static-pipeline provenance (see GenerationRecord).
	StaticMode    string             `json:"static_mode,omitempty"`
	IncReuseRatio float64            `json:"inc_reuse_ratio,omitempty"`
	History       []GenerationRecord `json:"history"`
	// IC aggregates the compiled engine's speculative-dispatch
	// counters (inline-cache hits/misses/deopts, fused
	// superinstruction executions) over every observed run.
	IC interp.ICStats `json:"ic"`
}

// ClientStats counts one client's observed runs and rollbacks.
type ClientStats struct {
	Runs      uint64 `json:"runs"`
	Rollbacks uint64 `json:"rollbacks"`
}

// Manager owns the adaptive state for one (program, base DB) pair. It
// implements core.Adapter, so it can be installed as RunOptions.Adapt
// on any optimistic run; Run adds the refine-and-retry loop on top.
// All methods are safe for concurrent use.
type Manager struct {
	prog   *ir.Program
	cache  *artifacts.Cache
	policy Policy
	met    *Metrics
	static core.StaticConfig
	incMet *inc.Metrics

	// cur is the published generation; reads are lock-free, so
	// in-flight runs keep their snapshot while a swap lands.
	cur atomic.Pointer[generation]

	mu         sync.Mutex
	runs       uint64
	rollbacks  uint64
	prRuns     uint64 // runs under generation > 1
	prRolls    uint64
	byKind     map[core.ViolationKind]uint64
	byClient   map[string]ClientStats
	ic         interp.ICStats
	factCounts map[string]int
	// latest is the newest derived DB — always at least as weak as
	// every published or in-flight generation. nextCauses are the
	// violations folded into latest but not yet captured by a
	// reconcile.
	latest      *invariants.DB
	nextCauses  []core.Violation
	reconciling bool
	history     []GenerationRecord
}

var _ core.Adapter = (*Manager)(nil)

// generation is one immutable deployed configuration. Its detectors
// (one per client, and per criterion and budget for the slicer) are
// built lazily and memoized; construction goes through the shared
// artifact cache, so a rebuild of an already-solved configuration is
// cheap.
type generation struct {
	n  int
	db *invariants.DB
	m  *Manager

	mu   sync.Mutex
	dets map[detectorKey]*built
}

// detectorKey identifies one memoized detector of a generation.
type detectorKey struct {
	client    string
	criterion int
	budget    int
}

// built is one memoized detector construction.
type built struct {
	once sync.Once
	det  any
	err  error
}

func newGeneration(n int, db *invariants.DB, m *Manager) *generation {
	return &generation{n: n, db: db, m: m, dets: map[detectorKey]*built{}}
}

// detector returns g's detector for k, building it on first use;
// concurrent callers for one key wait for the single build.
func detector[D any](g *generation, k detectorKey, build func() (D, error)) (D, error) {
	g.mu.Lock()
	b := g.dets[k]
	if b == nil {
		b = &built{}
		g.dets[k] = b
	}
	g.mu.Unlock()
	b.once.Do(func() { b.det, b.err = build() })
	d, _ := b.det.(D)
	return d, b.err
}

// New returns a manager for prog with base invariant database db
// (treated as immutable; generation 1). The expensive static solve is
// deferred to the first Race/Slice/Null call.
func New(prog *ir.Program, db *invariants.DB, o Options) *Manager {
	m := &Manager{
		prog:       prog,
		cache:      o.Cache,
		policy:     o.Policy,
		met:        o.Metrics,
		static:     o.Static,
		incMet:     o.Inc,
		byKind:     map[core.ViolationKind]uint64{},
		byClient:   map[string]ClientStats{},
		factCounts: map[string]int{},
		latest:     db,
	}
	m.cur.Store(newGeneration(1, db, m))
	m.history = []GenerationRecord{{Generation: 1, DBDigest: artifacts.DBDigest(db)}}
	return m
}

// Prog returns the managed program.
func (m *Manager) Prog() *ir.Program { return m.prog }

// Generation returns the published generation number.
func (m *Manager) Generation() int { return m.cur.Load().n }

// DB returns the published generation's invariant database (immutable).
func (m *Manager) DB() *invariants.DB { return m.cur.Load().db }

// Race returns the published generation's race detector and its
// generation number, building (and memoizing) it on first use.
func (m *Manager) Race() (*core.OptFT, int, error) {
	g := m.cur.Load()
	det, err := g.race()
	return det, g.n, err
}

// Slice returns the published generation's slicer for one criterion
// and budget, building (and memoizing) it on first use.
func (m *Manager) Slice(criterion *ir.Instr, budget int) (*core.OptSlice, int, error) {
	g := m.cur.Load()
	sl, err := detector(g, detectorKey{client: "slice", criterion: criterion.ID, budget: budget}, func() (*core.OptSlice, error) {
		return core.NewOptSliceStatic(m.prog, g.db, criterion, budget, m.cache, m.static)
	})
	return sl, g.n, err
}

// Null returns the published generation's null checker and its
// generation number, building (and memoizing) it on first use.
func (m *Manager) Null() (*core.OptNull, int, error) {
	g := m.cur.Load()
	det, err := detector(g, detectorKey{client: "nullcheck"}, func() (*core.OptNull, error) {
		start := time.Now()
		det, err := core.NewOptNullStatic(m.prog, g.db, m.cache, m.static)
		if err == nil {
			m.incMet.ObservePhase("nullproof", "nullcheck", time.Since(start).Seconds())
			m.setMaskDigest(g.n, det.CodeDigest())
		}
		return det, err
	})
	return det, g.n, err
}

func (g *generation) race() (*core.OptFT, error) {
	return detector(g, detectorKey{client: "race"}, func() (*core.OptFT, error) {
		det, err := core.NewOptFTStatic(g.m.prog, g.db, g.m.cache, g.m.static)
		if err == nil {
			g.m.setMaskDigest(g.n, det.CodeDigest())
		}
		return det, err
	})
}

// setMaskDigest back-fills a generation's mask digest into the history
// once its first detector is built (first-wins: one fingerprint per
// generation, whichever client materializes first).
func (m *Manager) setMaskDigest(gen int, digest string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.history {
		if m.history[i].Generation == gen {
			if m.history[i].MaskDigest == "" {
				m.history[i].MaskDigest = digest
			}
			return
		}
	}
}

// Observe implements core.Adapter: it feeds one outcome of client c
// into the ledger and, past the policy threshold, derives the refined
// DB. Outcomes on foreign programs are ignored; the expensive re-solve
// is deferred to Reconcile.
func (m *Manager) Observe(c core.Client, prog *ir.Program, _ core.Execution, out *core.Outcome) {
	if out == nil || prog != m.prog {
		return
	}
	name, rolledBack, v := c.Name(), out.RolledBack, out.Violation
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ic.Add(out.IC)
	gen := m.cur.Load().n
	m.runs++
	cs := m.byClient[name]
	cs.Runs++
	if gen > 1 {
		m.prRuns++
	}
	if rolledBack {
		m.rollbacks++
		cs.Rollbacks++
		if gen > 1 {
			m.prRolls++
		}
		m.byKind[v.Kind]++
	}
	m.byClient[name] = cs
	m.met.observeRun(name, rolledBack, gen > 1, string(v.Kind))
	if !rolledBack || !Refinable(v.Kind) {
		return
	}
	key := factKey(v)
	m.factCounts[key]++
	if m.factCounts[key] < m.policy.threshold() {
		return
	}
	if len(m.history) >= m.policy.maxGenerations() {
		return
	}
	refined := m.derive(m.latest, v)
	if refined == nil {
		// Stale: the fact is already gone from the newest DB (the run
		// started under an older generation). No generation owed.
		return
	}
	m.latest = refined
	m.nextCauses = append(m.nextCauses, v)
}

// derive returns latest weakened by v, or nil if v's fact is already
// absent. The result is memoized under KindRefined (with DBCodec), so
// a restarted daemon with a warm disk cache replays refinements
// without re-deriving them.
func (m *Manager) derive(base *invariants.DB, v core.Violation) *invariants.DB {
	refined := base.Clone()
	if !Refine(refined, v) {
		return nil
	}
	if m.cache != nil {
		key := artifacts.Key(artifacts.KindRefined, m.prog, base, 0, factKey(v))
		if got, err := m.cache.Memo(key, artifacts.DBCodec(), func() (any, error) {
			return refined, nil
		}); err == nil {
			return got.(*invariants.DB)
		}
	}
	return refined
}

// Pending reports whether refinements await a Reconcile (including one
// currently in flight).
func (m *Manager) Pending() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latest != m.cur.Load().db
}

// Reconcile performs the background re-analysis for any pending
// refined DB: it rebuilds the predicated static artifacts and compiled
// masks (through the artifact cache — sound artifacts stay warm, only
// predicated kinds re-solve under the new DB digest) and hot-swaps the
// new generation in. In-flight runs keep their old snapshot. Returns
// whether a new generation was published. Safe to call from multiple
// goroutines; at most one re-solve runs at a time, extra callers
// return (false, nil).
func (m *Manager) Reconcile(ctx context.Context) (bool, error) {
	m.mu.Lock()
	cur := m.cur.Load()
	if m.reconciling || m.latest == cur.db {
		m.mu.Unlock()
		return false, nil
	}
	m.reconciling = true
	db := m.latest
	causes := m.nextCauses
	m.nextCauses = nil
	n := cur.n + 1
	m.mu.Unlock()

	fail := func(err error) (bool, error) {
		m.mu.Lock()
		m.reconciling = false
		m.nextCauses = append(causes, m.nextCauses...)
		m.mu.Unlock()
		return false, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
	}

	start := time.Now()
	// Prewarm the static artifacts through the incremental pipeline:
	// Reanalyze resumes from the previous generation's saturated solver
	// state (or solves in parallel from scratch) and publishes the
	// results under the new DB's digest — so g.race() below finds every
	// static kind already cached and only rebuilds masks + bytecode. A
	// Reanalyze error is non-fatal: g.race() recomputes on its own.
	var st inc.Stats
	if m.cache != nil {
		if _, s, err := inc.Reanalyze(m.prog, cur.db, db, m.cache, inc.Options{
			Workers:     m.static.Workers,
			Incremental: m.static.Incremental,
			Metrics:     m.incMet,
		}); err == nil {
			st = s
		}
	}
	maskStart := time.Now()
	g := newGeneration(n, db, m)
	det, err := g.race() // the eager part of the re-solve
	if err != nil {
		return fail(err)
	}
	m.incMet.ObservePhase("masks", "race", time.Since(maskStart).Seconds())
	elapsed := time.Since(start).Seconds()

	m.mu.Lock()
	m.history = append(m.history, GenerationRecord{
		Generation:     n,
		Causes:         causes,
		DBDigest:       artifacts.DBDigest(db),
		MaskDigest:     det.CodeDigest(),
		ResolveSeconds: elapsed,
		StaticMode:     st.Mode,
		ReuseRatio:     st.ReuseRatio,
	})
	m.reconciling = false
	m.cur.Store(g)
	m.mu.Unlock()
	m.met.observeSwap(elapsed)
	return true, nil
}

// Status returns a consistent snapshot.
func (m *Manager) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{
		Generation:          m.cur.Load().n,
		Runs:                m.runs,
		Rollbacks:           m.rollbacks,
		PostRefineRuns:      m.prRuns,
		PostRefineRollbacks: m.prRolls,
		PendingReconcile:    m.latest != m.cur.Load().db,
		History:             append([]GenerationRecord(nil), m.history...),
		IC:                  m.ic,
	}
	if m.runs > 0 {
		st.SuccessRate = float64(m.runs-m.rollbacks) / float64(m.runs)
	}
	if len(m.byKind) > 0 {
		st.ViolationsByKind = make(map[core.ViolationKind]uint64, len(m.byKind))
		for k, v := range m.byKind {
			st.ViolationsByKind[k] = v
		}
	}
	if len(m.byClient) > 0 {
		st.Clients = make(map[string]ClientStats, len(m.byClient))
		for k, v := range m.byClient {
			st.Clients[k] = v
		}
	}
	for i := len(m.history) - 1; i > 0; i-- {
		if m.history[i].StaticMode != "" {
			st.StaticMode = m.history[i].StaticMode
			st.IncReuseRatio = m.history[i].ReuseRatio
			break
		}
	}
	return st
}

// Attempt is one generation's attempt within Run.
type Attempt[R core.Report] struct {
	Generation int `json:"generation"`
	Report     R   `json:"report"`
}

// Run runs the refine-and-retry loop for one execution under any
// client: run the detector get returns for the current generation
// (Manager.Race, Manager.Null, or a Manager.Slice closure); on a
// refinable rollback, reconcile and retry under the new one. The last
// attempt's report is authoritative (rollback re-execution makes every
// attempt sound; retries only recover speculation). The loop
// terminates because each refinement strictly weakens a finite fact
// set, and Policy.MaxGenerations caps it besides. opts.Adapt is
// overridden with m.
func Run[R core.Report, D core.Detector[R]](m *Manager, get func() (D, int, error), e core.Execution, opts core.RunOptions) ([]Attempt[R], error) {
	opts.Adapt = m
	var attempts []Attempt[R]
	for {
		det, gen, err := get()
		if err != nil {
			return attempts, err
		}
		rep, err := det.Run(e, opts)
		if err != nil {
			return attempts, err
		}
		attempts = append(attempts, Attempt[R]{Generation: gen, Report: rep})
		if out := rep.Common(); !out.RolledBack || !Refinable(out.Violation.Kind) {
			return attempts, nil
		}
		swapped, err := m.Reconcile(opts.Ctx)
		if err != nil {
			return attempts, err
		}
		if !swapped {
			return attempts, nil
		}
	}
}
