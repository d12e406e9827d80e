package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"oha/internal/artifacts"
	"oha/internal/bitset"
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/nullcheck"
	"oha/internal/vc"
)

// NullReport is the result of one null/misuse-checking run. The
// analysis verdict is the set of dereference sites observed accessing
// address 0 (each recovered deterministically by the interpreter's
// residual-check machinery: a nil load produces 0, a nil store is
// dropped).
type NullReport struct {
	// NilSites are the deref sites (instruction IDs, sorted) that
	// observed a nil address — the canonical verdict differently-
	// instrumented configurations must agree on.
	NilSites []int
	// NilDerefs is the total number of nil dereferences observed.
	NilDerefs uint64
	// CheckedDerefs counts residual dynamic checks executed
	// (interp.Stats.NullChecks) — the work the static phase could not
	// elide.
	CheckedDerefs uint64
	// DischargedChecks / DerefSites describe the static phase: how many
	// of the program's deref sites run with no dynamic check.
	DischargedChecks int
	DerefSites       int
	Outcome
}

// SameNullVerdicts reports whether two runs of one Execution observed
// nil dereferences at exactly the same sites.
func SameNullVerdicts(a, b *NullReport) bool {
	if len(a.NilSites) != len(b.NilSites) {
		return false
	}
	for i := range a.NilSites {
		if a.NilSites[i] != b.NilSites[i] {
			return false
		}
	}
	return true
}

// nilLog accumulates the nil-deref verdict of one run.
type nilLog struct {
	sites map[int]uint64
	total uint64
}

func (l *nilLog) record(id int) {
	if l.sites == nil {
		l.sites = map[int]uint64{}
	}
	l.sites[id]++
	l.total++
}

func (l *nilLog) sorted() []int {
	if len(l.sites) == 0 {
		return nil
	}
	out := make([]int, 0, len(l.sites))
	for id := range l.sites {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// nullObserver is the sound configurations' tracer: it only collects
// the verdict.
type nullObserver struct {
	interp.NopTracer
	log nilLog
}

func (o *nullObserver) NilDeref(_ vc.TID, in *ir.Instr) { o.log.record(in.ID) }

// nullChecker is the speculative run's tracer: it collects the verdict
// at residual checks AND verifies every invariant the predicated proof
// assumed — likely-non-null facts at the used load sites (Load events,
// delivered exactly there by the mem mask), likely-unreachable code,
// and likely callee sets (the predicated points-to prunes indirect
// calls to them).
type nullChecker struct {
	checker
	log  nilLog
	fact []bool // load site -> used non-null fact
}

func newNullChecker(prog *ir.Program, db *invariants.DB, used *bitset.Set, abort *interp.Abort) *nullChecker {
	c := &nullChecker{checker: newChecker(prog, db, abort), fact: make([]bool, len(prog.Instrs))}
	used.ForEach(func(id int) bool {
		c.fact[id] = true
		return true
	})
	return c
}

// FastState implements interp.FastTracer: the checker's Load handler
// on a non-zero value is exactly Events++ (the non-null violation can
// only fire on 0), so the engine settles non-nil fact loads inline,
// crediting the check through Checks. Zero values still call through
// and raise the violation as before.
func (c *nullChecker) FastState() *interp.FastState {
	return &interp.FastState{Kind: interp.FastNull, Checks: &c.Events}
}

// FlushMem implements interp.FastTracer; the checker never requests
// memory-event batching.
func (c *nullChecker) FlushMem([]interp.MemEvent) {}

// Load fires the non-null-fact check: the mem mask delivers load
// events exactly at the used fact sites.
func (c *nullChecker) Load(_ vc.TID, in *ir.Instr, _ interp.Addr, v int64) {
	c.Events++
	if v == 0 && c.fact[in.ID] {
		c.violate(Violation{Kind: ViolationNonNull, Site: in.ID, Callee: -1})
	}
}

// NilDeref records the verdict at a residual check; a nil address at a
// fact-covered load also refutes that fact (the recovered load
// produced 0).
func (c *nullChecker) NilDeref(_ vc.TID, in *ir.Instr) {
	c.log.record(in.ID)
	if c.fact[in.ID] {
		c.Events++
		c.violate(Violation{Kind: ViolationNonNull, Site: in.ID, Callee: -1})
	}
}

// portableNullProof is the gob image of a nullcheck.Result (IDs only,
// so it participates in the on-disk artifact tier).
type portableNullProof struct {
	Discharged []int
	UsedFacts  []int
	DerefSites int
}

// nullProofCodec persists null-proof artifacts against one program.
type nullProofCodec struct{ prog *ir.Program }

func (c nullProofCodec) Marshal(v any) ([]byte, error) {
	res := v.(*nullcheck.Result)
	p := portableNullProof{
		Discharged: res.Discharged.Slice(),
		UsedFacts:  res.UsedFacts.Slice(),
		DerefSites: res.DerefSites,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (c nullProofCodec) Unmarshal(data []byte) (any, error) {
	var p portableNullProof
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&p); err != nil {
		return nil, err
	}
	res := &nullcheck.Result{Discharged: &bitset.Set{}, UsedFacts: &bitset.Set{}, DerefSites: p.DerefSites}
	for _, id := range p.Discharged {
		if id < 0 || id >= len(c.prog.Instrs) {
			return nil, fmt.Errorf("core: cached null proof site %d out of range", id)
		}
		res.Discharged.Add(id)
	}
	for _, id := range p.UsedFacts {
		if id < 0 || id >= len(c.prog.Instrs) {
			return nil, fmt.Errorf("core: cached null proof fact %d out of range", id)
		}
		res.UsedFacts.Add(id)
	}
	return res, nil
}

// nullProofFor returns the (memoized) static non-nullness proof for
// one (program, database) pair. The points-to stage is shared with the
// race pipeline through its own memo key, so an inc.Reanalyze prewarm
// after a refinement serves the null client too.
func nullProofFor(prog *ir.Program, db *invariants.DB, cache *artifacts.Cache, cfg StaticConfig) (*nullcheck.Result, error) {
	v, err := cache.Memo(artifacts.Key(artifacts.KindNullProof, prog, db, 0, "ci"), nullProofCodec{prog: prog}, func() (any, error) {
		pt, err := pointsToCI(prog, db, cache, cfg)
		if err != nil {
			return nil, err
		}
		return nullcheck.Analyze(prog, pt, db), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*nullcheck.Result), nil
}

// fullNullMask marks every load/store site (the always-check
// configuration).
func fullNullMask(prog *ir.Program) []bool {
	mask := make([]bool, len(prog.Instrs))
	for _, in := range prog.Instrs {
		if in.Op == ir.OpLoad || in.Op == ir.OpStore {
			mask[in.ID] = true
		}
	}
	return mask
}

// residualNullMask marks the deref sites whose checks the static proof
// did NOT discharge.
func residualNullMask(prog *ir.Program, res *nullcheck.Result) []bool {
	mask := fullNullMask(prog)
	res.Discharged.ForEach(func(id int) bool {
		mask[id] = false
		return true
	})
	return mask
}

// factMemMask marks the used fact sites — exactly the loads the
// speculative run must observe to verify its optimistic assumptions.
func factMemMask(prog *ir.Program, res *nullcheck.Result) []bool {
	mask := make([]bool, len(prog.Instrs))
	res.UsedFacts.ForEach(func(id int) bool {
		mask[id] = true
		return true
	})
	return mask
}

// nullReport assembles the common report fields of one run.
func nullReport(log *nilLog, res *interp.Result, proof *nullcheck.Result) *NullReport {
	return &NullReport{
		NilSites:         log.sorted(),
		NilDerefs:        log.total,
		CheckedDerefs:    res.Stats.NullChecks,
		DischargedChecks: proof.Discharged.Len(),
		DerefSites:       proof.DerefSites,
		Outcome:          outcomeOf(res),
	}
}

// RunNullAlways executes with a dynamic null check at every deref site
// and no static analysis — the unoptimized baseline the discharge
// ratio is measured against.
func RunNullAlways(prog *ir.Program, e Execution, opts RunOptions) (*NullReport, error) {
	obs := &nullObserver{}
	res, err := execute(interp.Config{
		Prog:      prog,
		Tracer:    obs,
		MemMask:   make([]bool, len(prog.Instrs)),
		SyncMask:  make([]bool, len(prog.Instrs)),
		BlockMask: make([]bool, len(prog.Blocks)),
		NullMask:  fullNullMask(prog),
	}, e, opts)
	if err != nil {
		return nil, err
	}
	rep := nullReport(&obs.log, res, &nullcheck.Result{Discharged: &bitset.Set{}, UsedFacts: &bitset.Set{}})
	rep.DerefSites = countDerefSites(prog)
	return rep, nil
}

func countDerefSites(prog *ir.Program) int {
	n := 0
	for _, in := range prog.Instrs {
		if in.Op == ir.OpLoad || in.Op == ir.OpStore {
			n++
		}
	}
	return n
}

// HybridNull is the traditional hybrid baseline: dynamic null checks
// minus those the SOUND static non-nullness analysis discharges. It
// assumes no invariants, so it never rolls back — it is the rollback
// target.
type HybridNull struct {
	Prog   *ir.Program
	Static *nullcheck.Result

	nullMask  []bool
	memMask   []bool
	syncMask  []bool
	blockMask []bool
	code      *interp.Code
}

// NewHybridNullStatic runs the sound static non-nullness analysis,
// memoizing static artifacts in cache (nil: recompute).
func NewHybridNullStatic(prog *ir.Program, cache *artifacts.Cache, cfg StaticConfig) (*HybridNull, error) {
	proof, err := nullProofFor(prog, nil, cache, cfg)
	if err != nil {
		return nil, err
	}
	h := &HybridNull{
		Prog:      prog,
		Static:    proof,
		nullMask:  residualNullMask(prog, proof),
		memMask:   make([]bool, len(prog.Instrs)),
		syncMask:  make([]bool, len(prog.Instrs)),
		blockMask: make([]bool, len(prog.Blocks)),
	}
	// The sound image assumes no invariants: no IC seeds (nil db).
	h.code = compiledCode(prog, interp.Masks{Mem: h.memMask, Sync: h.syncMask, Block: h.blockMask, Null: h.nullMask}, CompileOptionsFor(nil), cache)
	return h, nil
}

// Run performs one sound hybrid null-checking run of e.
func (h *HybridNull) Run(e Execution, opts RunOptions) (*NullReport, error) {
	obs := &nullObserver{}
	res, err := execute(interp.Config{
		Prog:      h.Prog,
		Tracer:    obs,
		MemMask:   h.memMask,
		SyncMask:  h.syncMask,
		BlockMask: h.blockMask,
		NullMask:  h.nullMask,
		Code:      h.code,
	}, e, opts)
	if err != nil {
		return nil, err
	}
	return nullReport(&obs.log, res, h.Static), nil
}

// OptNull is the optimistic hybrid null checker: dynamic checks minus
// those the PREDICATED static analysis discharges, run speculatively
// with invariant checks and rollback to the traditional hybrid
// configuration on mis-speculation.
type OptNull struct {
	Prog *ir.Program
	DB   *invariants.DB
	// Pred is the predicated static proof; Sound the rollback target.
	Pred  *nullcheck.Result
	Sound *HybridNull

	nullMask  []bool
	memMask   []bool
	syncMask  []bool
	blockMask []bool
	code      *interp.Code
}

// NewOptNullStatic runs both static analyses (predicated for
// speculation, sound for rollback) and prepares masks, memoizing
// static artifacts in cache (nil: recompute). Masks are private to the
// returned instance; the static proofs are shared cached values and
// must not be mutated. With a warm cache — in particular one prewarmed
// by inc.Reanalyze after an adaptive refinement — the points-to stage
// is served, not solved.
func NewOptNullStatic(prog *ir.Program, db *invariants.DB, cache *artifacts.Cache, cfg StaticConfig) (*OptNull, error) {
	proof, err := nullProofFor(prog, db, cache, cfg)
	if err != nil {
		return nil, err
	}
	sound, err := NewHybridNullStatic(prog, cache, cfg)
	if err != nil {
		return nil, err
	}
	o := &OptNull{
		Prog:      prog,
		DB:        db,
		Pred:      proof,
		Sound:     sound,
		nullMask:  residualNullMask(prog, proof),
		memMask:   factMemMask(prog, proof),
		syncMask:  make([]bool, len(prog.Instrs)),
		blockMask: checkedBlockMask(prog, db),
	}
	// The speculative image is IC-seeded from the likely callee sets
	// (the null proof's points-to is predicated on them, and the
	// checker verifies them at runtime).
	o.code = compiledCode(prog, interp.Masks{Mem: o.memMask, Sync: o.syncMask, Block: o.blockMask, Null: o.nullMask}, CompileOptionsFor(db), cache)
	return o, nil
}

// CodeDigest returns the content digest of the speculative run's
// compiled configuration (see OptFT.CodeDigest). Refining a
// non-null-load fact changes the residual mask and so the digest.
func (o *OptNull) CodeDigest() string { return o.code.ConfigDigest() }

// ElidedChecks returns how many deref sites the predicated analysis
// lets OptNull run without a dynamic check — the analog of
// OptFT.ElidedAccesses.
func (o *OptNull) ElidedChecks() int { return o.Pred.Discharged.Len() }

// DischargeRatio is the fraction of deref sites statically discharged.
func (o *OptNull) DischargeRatio() float64 { return o.Pred.DischargeRatio() }

// Run performs one speculative null-checking run of e, rolling back to
// the traditional hybrid configuration on invariant violation.
func (o *OptNull) Run(e Execution, opts RunOptions) (*NullReport, error) {
	ck := newNullChecker(o.Prog, o.DB, o.Pred.UsedFacts, &interp.Abort{})
	return speculation[*NullReport]{
		client: nullClient{},
		cfg: interp.Config{
			Prog:      o.Prog,
			Tracer:    ck,
			MemMask:   o.memMask,
			SyncMask:  o.syncMask,
			BlockMask: o.blockMask,
			NullMask:  o.nullMask,
			Code:      o.code,
		},
		check:   &ck.checker,
		verdict: func(res *interp.Result) *NullReport { return nullReport(&ck.log, res, o.Pred) },
		sound:   o.Sound.Run,
	}.run(e, opts)
}
