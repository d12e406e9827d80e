package core

import (
	"oha/internal/interp"
	"oha/internal/invariants"
	"oha/internal/ir"
	"oha/internal/vc"
)

// This file implements the runtime invariant checks that make the
// optimistic dynamic analyses speculative: each check verifies one
// likely-invariant kind and raises the interpreter's Abort flag on
// violation (§2.3). The checks are deliberately cheap — a flag test at
// a likely-unreachable block, a counter at a spawn site, an address
// comparison at a paired lock site, a set-inclusion test at an
// indirect call, and one hash-set probe per new call context (§5.2.3).

// checker is what every client's invariant checker shares: the run's
// abort flag, the structured first violation, the check-event count,
// and the checks of the two invariants every predicated static phase
// assumes through the predicated points-to — likely-unreachable code
// and likely callee sets.
type checker struct {
	interp.NopTracer
	abort *interp.Abort
	// first is the structured form of the first violation this checker
	// raised (mirrors abort's first-wins reason).
	first Violation

	luc []bool // block ID -> assumed unreachable
	// calleeSets maps an indirect site to its allowed callee function
	// IDs; nil leaves the callee-set check off.
	calleeSets map[int]map[int]bool

	// Events counts check events processed (for cost accounting).
	Events uint64
}

// newChecker arms the shared checks by the rule the predicated
// points-to analysis prunes by (pointsto.Analyze): likely-unreachable
// blocks always, likely callee sets iff db.Callees != nil (a nil map
// disables the invariant, so nothing was assumed). Armed, an indirect
// call or spawn violates when its target lies outside the site's
// profiled set, or when the site has no profiled set at all.
func newChecker(prog *ir.Program, db *invariants.DB, abort *interp.Abort) checker {
	c := checker{abort: abort, luc: make([]bool, len(prog.Blocks))}
	for _, b := range prog.Blocks {
		c.luc[b.ID] = db.LikelyUnreachable(b.ID)
	}
	if db.Callees != nil {
		c.calleeSets = make(map[int]map[int]bool, len(db.Callees))
		for site, set := range db.Callees {
			m := map[int]bool{}
			set.ForEach(func(f int) bool {
				m[f] = true
				return true
			})
			c.calleeSets[site] = m
		}
	}
	return c
}

// violate raises the abort flag with v. The structured record follows
// the flag's first-wins rule, so it always describes the violation
// whose reason the abort reports — even when another tracer sharing
// the flag (the slicer's trace limit) raced it within one event chain.
func (c *checker) violate(v Violation) {
	if !c.abort.IsSet() {
		c.first = v
	}
	c.abort.Set(v.String())
}

// BlockEnter fires the likely-unreachable-code check.
func (c *checker) BlockEnter(_ vc.TID, b *ir.Block) {
	c.Events++
	if c.luc[b.ID] {
		c.violate(Violation{Kind: ViolationUnreachableBlock, Site: b.ID, Callee: -1})
	}
}

// Call fires the likely-callee-set check at an indirect call site.
func (c *checker) Call(_ vc.TID, in *ir.Instr, callee *ir.Function, _, _ interp.FrameID) {
	c.checkCallee(in, callee)
}

// Spawn fires the likely-callee-set check at an indirect spawn site.
func (c *checker) Spawn(_ vc.TID, in *ir.Instr, _ vc.TID, _ interp.FrameID, callee *ir.Function) {
	c.checkCallee(in, callee)
}

// checkCallee fires the likely-callee-set check at an indirect call or
// spawn site when the check is armed.
func (c *checker) checkCallee(in *ir.Instr, callee *ir.Function) {
	if c.calleeSets == nil || !in.IsIndirect() {
		return
	}
	c.Events++
	set := c.calleeSets[in.ID]
	if set == nil || !set[callee.ID] {
		c.violate(Violation{Kind: ViolationCalleeSet, Site: in.ID, Callee: callee.ID, Detail: callee.Name})
	}
}

// raceChecker verifies the OptFT invariants: likely-unreachable code,
// likely callee sets, likely singleton threads, and likely guarding
// locks. (No custom synchronization is verified by the race detector
// itself: any race report while locks are elided is treated as a
// potential mis-speculation.)
type raceChecker struct {
	checker

	spawnOnce   []bool // instr ID -> assumed singleton spawn site
	spawnCounts map[int]int

	// Guarding-lock verification: sites connected by must-alias pairs
	// form groups; every lock event at a grouped site must present the
	// same single runtime address for the whole group.
	lockGroup map[int]int // lock site -> group id
	groupAddr map[int]interp.Addr
}

// newRaceChecker builds the checker for a database. prog supplies site
// tables.
func newRaceChecker(prog *ir.Program, db *invariants.DB, abort *interp.Abort) *raceChecker {
	c := &raceChecker{
		checker:     newChecker(prog, db, abort),
		spawnOnce:   make([]bool, len(prog.Instrs)),
		spawnCounts: map[int]int{},
		lockGroup:   map[int]int{},
		groupAddr:   map[int]interp.Addr{},
	}
	db.SingletonSpawns.ForEach(func(id int) bool {
		c.spawnOnce[id] = true
		return true
	})
	// Union-find over must-alias pairs to form lock groups.
	parent := map[int]int{}
	var find func(x int) int
	find = func(x int) int {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	for pair := range db.MustAliasLocks {
		ra, rb := find(pair.A), find(pair.B)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for site := range parent {
		c.lockGroup[site] = find(site)
	}
	return c
}

// Spawn fires the likely-callee-set and likely-singleton-thread checks.
func (c *raceChecker) Spawn(t vc.TID, in *ir.Instr, child vc.TID, f interp.FrameID, callee *ir.Function) {
	c.checker.Spawn(t, in, child, f, callee)
	c.Events++
	if c.spawnOnce[in.ID] {
		c.spawnCounts[in.ID]++
		if c.spawnCounts[in.ID] > 1 {
			c.violate(Violation{Kind: ViolationSingletonSpawn, Site: in.ID, Callee: -1})
		}
	}
}

// Lock fires the likely-guarding-locks check.
func (c *raceChecker) Lock(_ vc.TID, in *ir.Instr, addr interp.Addr) {
	g, ok := c.lockGroup[in.ID]
	if !ok {
		return
	}
	c.Events++
	if prev, seen := c.groupAddr[g]; seen {
		if prev != addr {
			c.violate(Violation{Kind: ViolationGuardingLock, Site: in.ID, Callee: -1})
		}
		return
	}
	c.groupAddr[g] = addr
}

// checkedBlockMask returns the BlockMask delivering exactly the
// likely-unreachable blocks (the only block events the optimistic run
// needs).
func checkedBlockMask(prog *ir.Program, db *invariants.DB) []bool {
	mask := make([]bool, len(prog.Blocks))
	for _, b := range prog.Blocks {
		if db.LikelyUnreachable(b.ID) {
			mask[b.ID] = true
		}
	}
	return mask
}

// sliceChecker verifies the OptSlice invariants: likely-unreachable
// code, likely callee sets, and likely unused call contexts.
type sliceChecker struct {
	checker
	prog *ir.Program

	checkCtx  bool
	ctxHashes map[uint64]bool
	stacks    map[vc.TID]*checkStack
}

// checkStack mirrors the profiler's acyclic context-tracking stack,
// with incremental context hashes so each check is one set probe.
type checkStack struct {
	frames []checkFrame
	active map[int]int
	path   []int
	hashes []uint64 // hash prefix per extended frame
}

type checkFrame struct {
	fnID     int
	extended bool
}

func newSliceChecker(prog *ir.Program, db *invariants.DB, checkContexts bool, abort *interp.Abort) *sliceChecker {
	c := &sliceChecker{
		checker:  newChecker(prog, db, abort),
		prog:     prog,
		checkCtx: checkContexts,
		stacks:   map[vc.TID]*checkStack{},
	}
	if checkContexts {
		c.ctxHashes = db.Contexts.HashSet()
	}
	return c
}

func (c *sliceChecker) stack(t vc.TID) *checkStack {
	s := c.stacks[t]
	if s == nil {
		s = &checkStack{active: map[int]int{}}
		s.frames = append(s.frames, checkFrame{fnID: c.prog.Main().ID, extended: true})
		s.active[c.prog.Main().ID] = 1
		s.hashes = append(s.hashes, invariants.EmptyContextHash)
		c.stacks[t] = s
	}
	return s
}

// Call fires the likely-callee-set and call-context checks.
func (c *sliceChecker) Call(t vc.TID, in *ir.Instr, callee *ir.Function, cr, ce interp.FrameID) {
	c.checker.Call(t, in, callee, cr, ce)
	if !c.checkCtx {
		return
	}
	s := c.stack(t)
	fr := checkFrame{fnID: callee.ID}
	if s.active[callee.ID] == 0 {
		fr.extended = true
		s.path = append(s.path, in.ID)
		h := invariants.HashExtend(s.hashes[len(s.hashes)-1], in.ID)
		s.hashes = append(s.hashes, h)
		c.checkContext(h, in.ID, s.path)
	}
	s.active[callee.ID]++
	s.frames = append(s.frames, fr)
}

// Spawn fires the likely-callee-set check and begins a new thread-root
// context.
func (c *sliceChecker) Spawn(t vc.TID, in *ir.Instr, child vc.TID, f interp.FrameID, callee *ir.Function) {
	c.checker.Spawn(t, in, child, f, callee)
	if !c.checkCtx {
		return
	}
	parent := c.stack(t)
	s := &checkStack{active: map[int]int{}}
	s.path = append(append([]int(nil), parent.path...), in.ID)
	s.frames = append(s.frames, checkFrame{fnID: callee.ID, extended: true})
	s.active[callee.ID] = 1
	h := invariants.HashContext(s.path)
	s.hashes = append(s.hashes, h)
	c.checkContext(h, in.ID, s.path)
	c.stacks[child] = s
}

// checkContext fires the call-context check on the context path
// extended at site, whose hash is h: one exact hash-set probe.
func (c *sliceChecker) checkContext(h uint64, site int, path []int) {
	c.Events++
	if !c.ctxHashes[h] {
		c.violate(Violation{Kind: ViolationCallContext, Site: site, Callee: -1, Path: append([]int(nil), path...)})
	}
}

// Ret unwinds the context stack.
func (c *sliceChecker) Ret(t vc.TID, _ *ir.Instr, _, _ interp.FrameID, _ *ir.Var) {
	if !c.checkCtx {
		return
	}
	s := c.stack(t)
	if len(s.frames) == 0 {
		return
	}
	fr := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	s.active[fr.fnID]--
	if fr.extended && len(s.path) > 0 {
		s.path = s.path[:len(s.path)-1]
		s.hashes = s.hashes[:len(s.hashes)-1]
	}
}
