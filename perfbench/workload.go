package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"oha/internal/core"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/progen"
	"oha/internal/server"
	"oha/internal/workloads"
)

// Input ranges. Profiling inputs and test inputs never overlap: a
// suite program's GenInput(i) for i < profileRuns profiles, i >=
// testBase tests (the split cmd/ohabench uses). Programs like
// null-flaky trap without null checks on test inputs, so a profile job
// on one would fail.
const (
	profileRuns = 32 // GenInput(0..31) profiles
	testBase    = 1000
	testSpan    = 1 << 20 // test input indices lie in [testBase, testBase+testSpan)
	churnInputs = 48      // test inputs per adapt-churn program
)

// program is one MiniLang program the benchmark sends to the daemon.
type program struct {
	name   string
	source string
	ir     *ir.Program // benchmark-side compile, for references; see compiled
	kind   string      // the analysis its jobs request
	input  func(run int) []int64
	id     string // daemon content address, set by the upload
	invID  string // invariant-DB id its analysis jobs read
}

// compiled returns the program's IR. Cold programs and onboarded copies
// carry none: each is analyzed once, and compiling it only when its
// reference is computed, after the timed window, keeps thousands of IR
// copies out of memory.
func (p *program) compiled() (*ir.Program, error) {
	if p.ir != nil {
		return p.ir, nil
	}
	return lang.Compile(p.source)
}

// job is one request: the program, the wire request (ProgramID is
// filled in at send time), and the execution it analyzes.
type job struct {
	prog *program
	req  server.JobRequest
}

func (j *job) exec() core.Execution { return core.Execution{Inputs: j.req.Inputs, Seed: j.req.Seed} }

// session is what one client does before drawing again: optionally
// upload a program the daemon has never seen, then run jobs in order.
type session struct {
	upload *program
	jobs   []*job
}

// workload generates a traffic mix from the run's seed.
type workload interface {
	// setup uploads and profiles the corpus and precomputes reference
	// verdicts; sessions run through b.runSession.
	setup(b *bench) error
	// next returns the run's n-th session (n counts from 0 across both
	// clients), so every run of a seed sends the same sequence.
	next(n uint64) *session
}

// deck is what adapt-churn cycles through: every run sends each entry
// equally often (to within one), so the mix a run measures does not
// depend on sampling luck. Each pass takes the entries in a fresh
// seeded order: with one order repeated for the whole run, the state
// it leaves behind (the refinements between two profile writes) would
// be fixed by the seed alone.
type deck struct {
	entries []churnOp
	seed    uint64
	mu      sync.Mutex
	passes  [][]int // passes[k]: the k-th pass's order
}

// at returns the n-th entry dealt.
func (d *deck) at(n uint64) churnOp {
	size := uint64(len(d.entries))
	pass := n / size
	d.mu.Lock()
	for uint64(len(d.passes)) <= pass {
		rng := rand.New(rand.NewSource(int64(splitmix(d.seed<<16 | uint64(len(d.passes))))))
		d.passes = append(d.passes, rng.Perm(len(d.entries)))
	}
	order := d.passes[pass]
	d.mu.Unlock()
	return d.entries[order[n%size]]
}

func profileJob(p *program, inputs []int64, runs int, saveAs string, merge bool) *job {
	return &job{prog: p, req: server.JobRequest{Kind: "profile", Inputs: inputs, Seed: 1, Runs: runs, SaveAs: saveAs, Merge: merge}}
}

func analysisJob(p *program, inputs []int64, seed uint64, adapt bool) *job {
	return &job{prog: p, req: server.JobRequest{Kind: p.kind, Inputs: inputs, Seed: seed, InvariantsID: p.invID, Adapt: adapt}}
}

func kindOf(k workloads.Kind) string {
	switch k {
	case workloads.Slice:
		return "slice"
	case workloads.Null:
		return "nullcheck"
	}
	return "race"
}

func suiteProgram(w *workloads.Workload, prefix string) *program {
	return &program{name: w.Name, source: w.Source, ir: w.Prog(), kind: kindOf(w.Kind), input: w.GenInput, invID: prefix + w.Name}
}

// suitePrograms returns the paper's workload suite (workloads.All).
func suitePrograms() []*program {
	var progs []*program
	for _, w := range workloads.All() {
		progs = append(progs, suiteProgram(w, "suite-"))
	}
	return progs
}

// testExec returns the i-th test execution for this seed: an input
// index scattered over [testBase, testBase+testSpan) and a scheduling
// seed, both hashed from (seed, i). The suite's GenInput(run) streams
// for consecutive runs are shifted copies of each other, so a block of
// consecutive indices is one input seen several times; perl's slice
// jobs roll back on 15% to 80% of the inputs in such a block,
// depending on where it starts.
func testExec(p *program, seed uint64, i int) ([]int64, uint64) {
	h := splitmix(seed<<20 | uint64(i))
	return p.input(testBase + int(h%testSpan)), splitmix(h)%(1<<20) + 1
}

// splitmix is the SplitMix64 finalizer: a well-mixed hash of x.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ------------------------------------------------ cold-suite, cold-programs

// coldRate bounds the sessions per second newCold pre-generates
// programs for; a run that outpaces it generates the rest on demand.
const coldRate = 600

// coldWarmups is how many never-seen programs set-up onboards on the
// fresh daemon, the cold workload's corpus: set-up is booting plus a
// first corpus, as on the other workloads, not a bare boot of a tenth
// of a millisecond whose median moved by a third between runs. Like
// the suite, the corpus is the same for every seed (coldWarmupSeed).
const (
	coldWarmups    = 150
	coldWarmupSeed = 1 << 40
)

// coldGen builds the n-th session (n from 1) of a cold workload's
// seeded stream of programs the daemon has never seen.
type coldGen func(seed, n uint64) *session

// cold draws a program the daemon has never seen for every session,
// uploads it, profiles it, and runs one analysis job on it. The run's
// programs are generated before set-up, so the clients only send and
// setup_s holds no test-data generation.
type cold struct {
	seed   uint64
	gen    coldGen
	pool   []*session
	warmup []*session // set-up's sessions, from coldWarmupSeed
}

func newCold(seed uint64, window time.Duration, gen coldGen) *cold {
	w := &cold{seed: seed, gen: gen, pool: make([]*session, int(window.Seconds()*coldRate)+1)}
	for i := range w.pool {
		w.pool[i] = gen(seed, uint64(i+1))
	}
	for n := uint64(1); n <= coldWarmups; n++ {
		w.warmup = append(w.warmup, gen(coldWarmupSeed, n))
	}
	return w
}

func (w *cold) setup(b *bench) error {
	var analyses []*job
	for _, s := range w.warmup {
		analyses = append(analyses, s.jobs[1])
	}
	return b.setupSessions(w.warmup, analyses)
}

func (w *cold) next(n uint64) *session {
	if n < uint64(len(w.pool)) {
		return w.pool[n]
	}
	return w.gen(w.seed, n+1)
}

// suiteVariant is cold-suite's stream: the suite's programs in turn,
// each made new by variantSession.
func suiteVariant(suite []*program) coldGen {
	return func(seed, n uint64) *session { return variantSession(suite, seed, n) }
}

// variantSession builds the n-th session of never-seen suite programs:
// a suite program made new to the daemon by an unused function appended
// to its source, uploaded, profiled on its first profiling input (two
// scheduling seeds), and analyzed once on a test input. The appended
// function names seed and n, so streams of different seeds share no
// program.
func variantSession(suite []*program, seed, n uint64) *session {
	p := suite[n%uint64(len(suite))]
	v := &program{
		name:   fmt.Sprintf("%s+%d.%d", p.name, seed, n),
		source: p.source + fmt.Sprintf("\nfunc variant%d_%d() { return %d; }\n", seed, n, n),
		kind:   p.kind,
		input:  p.input,
		invID:  fmt.Sprintf("variant-%d.%d", seed, n),
	}
	in, s := testExec(p, seed+1<<20, int(n))
	return &session{upload: v, jobs: []*job{profileJob(v, p.input(0), 2, v.invID, false), analysisJob(v, in, s, false)}}
}

// coldProfileInput keeps values small: generated nullable programs
// only drop pointers to nil on inputs above 400, so profiling stays
// trap-free; dispatch programs read input(0) as the polymorphism
// selector and are profiled monomorphic.
func coldProfileInput(run int) []int64 {
	in := make([]int64, 8)
	for i := range in {
		in[i] = int64((run*7 + i*13) % 64)
	}
	in[0] = 0
	return in
}

// generated is cold-programs' stream: a program from a seeded mix of
// the three progen families, with the analysis its family exercises.
func generated(seed, n uint64) *session {
	pseed := seed*1_000_003 + n
	rng := rand.New(rand.NewSource(int64(pseed)))
	p := &program{invID: fmt.Sprintf("gen-%d.%d", seed, n), input: coldProfileInput}
	test := make([]int64, 8)
	switch f := rng.Intn(10); {
	case f < 4:
		p.name, p.source = fmt.Sprintf("gen-%d", pseed), progen.Generate(pseed, progen.DefaultConfig())
		p.kind = "race"
		if f >= 2 {
			p.kind = "slice"
		}
		for i := range test {
			test[i] = int64(rng.Intn(100))
		}
	case f < 7:
		// Inputs above 400 may drop a pointer to nil: the null checker
		// recovers, and a refuted non-null fact rolls back.
		p.name, p.source = fmt.Sprintf("null-%d", pseed), progen.GenerateNullable(pseed, progen.DefaultNullableConfig())
		p.kind = "nullcheck"
		for i := range test {
			test[i] = int64(rng.Intn(1200))
		}
	default:
		// A polymorphic selector on a monomorphically profiled program
		// escapes the speculated callee sets.
		p.name, p.source = fmt.Sprintf("dispatch-%d", pseed), progen.GenerateDispatch(pseed, progen.DefaultDispatchConfig())
		p.kind = "race"
		for i := range test {
			test[i] = int64(rng.Intn(64))
		}
		test[0] = int64(rng.Intn(8))
	}
	if p.kind == "slice" && !strings.Contains(p.source, "print(") {
		p.kind = "race"
	}
	return &session{upload: p, jobs: []*job{
		profileJob(p, p.input(int(n)), 2, p.invID, false),
		analysisJob(p, test, uint64(rng.Intn(1<<16))+1, false),
	}}
}

// ----------------------------------------------------------- adapt-churn

// churnPrograms are suite programs whose invariants depend on the
// input, so a one-run profile mis-speculates on test inputs.
// dispatch-poly (speculated callee sets) and sphinx make the race and
// the slice reads three programs each: with two, a kind's p50 fell in
// the gap between their latencies and moved with every small change
// in either.
var churnPrograms = []string{"go", "perl", "sphinx", "lusearch", "luindex", "dispatch-poly", "null-flaky"}

// churn under-profiles input-dependent programs into fresh DBs and
// runs adaptive reads on test inputs beside profile writes: merges
// that bump the DB version (a new adaptive manager, invalidated cache
// entries) and resets that put a fresh one-run profile back.
type churn struct {
	seed  uint64
	progs []*program
	deck  *deck
}

// churnOp is one entry of the adapt-churn deck: an adaptive read (test
// set), or a profile write of one fresh run that replaces (merge
// false) or merges into the program's DB.
type churnOp struct {
	prog  *program
	test  *job
	merge bool
}

// Per program, the deck holds churnInputs reads, churnResets resets and
// churnMerges merges: about 70% reads, 9% resets, 21% merges.
const (
	churnResets = 6
	churnMerges = 14
)

func newChurn(seed uint64) *churn {
	w := &churn{seed: seed}
	for _, name := range churnPrograms {
		w.progs = append(w.progs, suiteProgram(workloads.ByName(name), "churn-"))
	}
	return w
}

// profileInput returns the profiling input session n writes with:
// consecutive writes see different inputs (modulo the range), so the
// DB each produces is new and its static artifacts must be solved.
func (w *churn) profileInput(p *program, n uint64) []int64 {
	return p.input(int((w.seed*131 + n) % profileRuns))
}

func (w *churn) setup(b *bench) error {
	sessions := make([]*session, len(w.progs))
	var all []*job
	var entries []churnOp
	for i, p := range w.progs {
		var tests []*job
		for t := 0; t < churnInputs; t++ {
			in, seed := testExec(p, w.seed, t)
			tests = append(tests, analysisJob(p, in, seed, true))
			entries = append(entries, churnOp{prog: p, test: tests[t]})
		}
		for r := 0; r < churnResets+churnMerges; r++ {
			entries = append(entries, churnOp{prog: p, merge: r >= churnResets})
		}
		all = append(all, tests...)
		sessions[i] = &session{upload: p, jobs: []*job{profileJob(p, w.profileInput(p, uint64(i)), 1, p.invID, false), tests[0]}}
	}
	w.deck = &deck{entries: entries, seed: w.seed}
	return b.setupSessions(sessions, all)
}

func (w *churn) next(n uint64) *session {
	op := w.deck.at(n)
	j := op.test
	if j == nil {
		j = profileJob(op.prog, w.profileInput(op.prog, n), 1, op.prog.invID, op.merge)
	}
	return &session{jobs: []*job{j}}
}
