package core

import (
	"sort"
	"strconv"
	"strings"

	"oha/internal/invariants"
)

// Client describes one analysis client of the optimistic hybrid core:
// a (profiling → predicated static analysis → speculative dynamic
// analysis) pipeline with its own violation kinds and refinement
// rules. The three paper clients — race detection (OptFT, §4),
// backward slicing (OptSlice, §5), and the null/misuse checker
// (OptNull) — register themselves here; everything downstream of core
// (the adaptive speculation manager, the daemon's job kinds, the load
// generator, the CLI) discovers clients through this registry instead
// of hard-coding the set, so adding a fourth client is: implement
// Client, register it, build its constructors. See DESIGN §17.
type Client interface {
	// Name is the stable client identifier — the daemon job kind, the
	// metric label value, and the registry key ("race", "slice",
	// "nullcheck").
	Name() string
	// Kinds lists the violation kinds this client's runtime checker can
	// raise. Every refinable kind must be owned by exactly one client.
	Kinds() []ViolationKind
	// Refinable reports whether k refutes an invariant fact the
	// adaptive manager can remove. Auxiliary rollback causes (the trace
	// limit) roll back but refine nothing.
	Refinable(k ViolationKind) bool
	// Refine weakens db by the fact v refutes, using the invariant
	// package's merge-respecting weaken helpers. Reports whether db
	// changed (false: the fact was already absent).
	Refine(db *invariants.DB, v Violation) bool
	// FactKey fingerprints the invariant fact v refutes — the unit the
	// adaptive ledger counts toward its threshold. Distinct dynamic
	// observations of one fact collapse to one key.
	FactKey(v Violation) string
}

// clients is the process-wide registry, populated by init below (and
// extensible by out-of-tree clients before analysis starts).
var clients = map[string]Client{}

// RegisterClient adds a client to the registry; a duplicate name
// panics (client names are wire identifiers and must be unambiguous).
func RegisterClient(c Client) {
	if _, dup := clients[c.Name()]; dup {
		panic("core: duplicate client " + c.Name())
	}
	clients[c.Name()] = c
}

// ClientByName returns the registered client with the given name.
func ClientByName(name string) (Client, bool) {
	c, ok := clients[name]
	return c, ok
}

// Clients returns every registered client, sorted by name for
// deterministic iteration.
func Clients() []Client {
	out := make([]Client, 0, len(clients))
	for _, c := range clients {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// ClientNames returns the sorted registered client names.
func ClientNames() []string {
	cs := Clients()
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name()
	}
	return names
}

// ClientForViolation returns the client owning violation kind k. The
// shared kinds (unreachable-block is checked by every client) resolve
// to the first owner in name order; refinement semantics are identical
// across owners, so any owner's Refine applies.
func ClientForViolation(k ViolationKind) (Client, bool) {
	for _, c := range Clients() {
		for _, ck := range c.Kinds() {
			if ck == k {
				return c, true
			}
		}
	}
	return nil, false
}

// sharedKinds are the violation kinds of the checks the checker base
// owns (newChecker): every client's predicated points-to assumes
// likely-unreachable code and likely callee sets, so every client
// checks — and refines — both.
var sharedKinds = []ViolationKind{ViolationUnreachableBlock, ViolationCalleeSet}

// refineShared handles the shared violation kinds. The second result
// reports whether v was one of them.
func refineShared(db *invariants.DB, v Violation) (bool, bool) {
	switch v.Kind {
	case ViolationUnreachableBlock:
		return db.MarkVisited(v.Site), true
	case ViolationCalleeSet:
		return db.WidenCallees(v.Site, v.Callee), true
	}
	return false, false
}

// baseFactKey renders the kind@site prefix every client's fact keys
// share; a callee-set fact also names the callee (each out-of-set
// callee widens the site by a distinct fact).
func baseFactKey(v Violation) string {
	k := string(v.Kind) + "@" + strconv.Itoa(v.Site)
	if v.Kind == ViolationCalleeSet {
		k += ">" + strconv.Itoa(v.Callee)
	}
	return k
}

// raceClient is the OptFT race-detection client (§4).
type raceClient struct{}

func (raceClient) Name() string { return "race" }

func (raceClient) Kinds() []ViolationKind {
	return append(sharedKinds, ViolationSingletonSpawn, ViolationGuardingLock, ViolationElidedLockRace)
}

func (raceClient) Refinable(k ViolationKind) bool { return true }

func (raceClient) Refine(db *invariants.DB, v Violation) bool {
	if changed, ok := refineShared(db, v); ok {
		return changed
	}
	switch v.Kind {
	case ViolationSingletonSpawn:
		return db.RetractSingletonSpawn(v.Site)
	case ViolationGuardingLock:
		return db.DropMustAliasGroup(v.Site) > 0
	case ViolationElidedLockRace:
		return db.ClearElidableLocks()
	}
	return false
}

func (raceClient) FactKey(v Violation) string { return baseFactKey(v) }

// sliceClient is the OptSlice backward-slicing client (§5).
type sliceClient struct{}

func (sliceClient) Name() string { return "slice" }

func (sliceClient) Kinds() []ViolationKind {
	return append(sharedKinds, ViolationCallContext, ViolationTraceLimit)
}

func (sliceClient) Refinable(k ViolationKind) bool {
	return k != ViolationTraceLimit // the trace limit carries no refutable fact
}

func (sliceClient) Refine(db *invariants.DB, v Violation) bool {
	if changed, ok := refineShared(db, v); ok {
		return changed
	}
	if v.Kind == ViolationCallContext {
		return db.AddContext(v.Path)
	}
	return false
}

func (sliceClient) FactKey(v Violation) string {
	var b strings.Builder
	b.WriteString(baseFactKey(v))
	if v.Kind == ViolationCallContext {
		for _, s := range v.Path {
			b.WriteByte('/')
			b.WriteString(strconv.Itoa(s))
		}
	}
	return b.String()
}

// nullClient is the OptNull null/misuse-checking client. Its static
// proof is predicated on likely-non-null loads beside the shared
// invariants, so its checker verifies all three.
type nullClient struct{}

func (nullClient) Name() string { return "nullcheck" }

func (nullClient) Kinds() []ViolationKind {
	return append(sharedKinds, ViolationNonNull)
}

func (nullClient) Refinable(k ViolationKind) bool { return true }

func (nullClient) Refine(db *invariants.DB, v Violation) bool {
	if changed, ok := refineShared(db, v); ok {
		return changed
	}
	if v.Kind == ViolationNonNull {
		return db.RetractNonNullLoad(v.Site)
	}
	return false
}

func (nullClient) FactKey(v Violation) string { return baseFactKey(v) }

func init() {
	RegisterClient(raceClient{})
	RegisterClient(sliceClient{})
	RegisterClient(nullClient{})
}
