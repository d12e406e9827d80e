// Command perfbench is the repository's end-to-end benchmark: it boots
// the analysis daemon in this process (server.New on a loopback
// listener), drives seeded, closed-loop job traffic at it from two
// clients, checks every verdict against a sound reference computed on
// the tree-walking engine, and prints one JSON line of metrics.
//
//	perfbench --workload cold-suite --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it records spans around every call it makes into a
// layer (HTTP round trips, the jobs' queue and run intervals, and a
// direct-call replay of the same job stream through each layer's
// public entry points) and reports the per-layer metrics. A detailed
// report goes to .bench_build/results/ and a summary to stderr. See
// NOTES.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oha/internal/artifacts"
)

const (
	// clients is the closed loop's concurrency: callers that each wait
	// for their reply (oha -remote), one per core of a 2-core machine.
	clients = 2
	// setupRounds: set-up runs this many times (fresh daemon each) and
	// setup_s is their median; the last round's daemon is measured.
	setupRounds = 3
	// jobWait bounds how long a client waits for one job.
	jobWait = 60 * time.Second
	// rssSessions: peak_rss_mb is read when the window's rssSessions-th
	// session completes (or when the window closes, if sooner). The
	// daemon keeps every program, invariant version and adaptive
	// manager it is given, so its footprint grows with the work it has
	// done; reading it after a fixed amount of work keeps the metric
	// independent of throughput.
	rssSessions = 3000
	// replayBudget bounds the traced run's direct-call replay, which
	// runs after the window: enough jobs for the per-layer split
	// without doubling the run.
	replayBudget = 5 * time.Second
)

// workloadNames are the workloads --workload accepts. BENCHMARK.json
// lists all but cold-programs, which reproduces the wrong verdicts on
// generated programs described in NOTES.md: the daemon fails its
// verdict check there, so its result line reads "correct": false.
var workloadNames = []string{"cold-suite", "adapt-churn", "cold-programs"}

// isCold reports whether a workload uploads a never-seen program in
// every session.
func isCold(name string) bool { return name == "cold-suite" || name == "cold-programs" }

// sample is one attempted job as the client saw it.
type sample struct {
	j        *job
	id       string
	start    time.Time // before POST /v1/jobs
	admitted time.Time // POST returned
	done     time.Time // the job's done channel closed
	end      time.Time // GET result returned
	created  time.Time // JobStatus timestamps (server clock = this clock)
	started  time.Time
	finished time.Time
	res      *jobResult
	out      outcome
	err      error
}

func (s *sample) latency() time.Duration { return s.end.Sub(s.start) }

// upload is one timed POST /v1/programs.
type upload struct{ start, end time.Time }

// phase is what a run is doing when a session completes.
type phase int

const (
	phaseSetup phase = iota
	phaseWindow
	phaseOnboard
)

// bench is one run: the daemon, the workload, and what was measured.
type bench struct {
	name    string
	seed    uint64
	refs    *references
	w       workload
	d       *daemon
	mu      sync.Mutex
	samples []*sample
	uploads []upload
	first   []float64 // first-verdict latencies, ms
	setupJs []*sample // set-up jobs, replayed to warm the replay's state
	phase   phase
	rssMB   float64 // peak RSS after rssSessions sessions

	onboardJs []*sample // see onboardSessions

	// Daemon counters over the window: cache stats when it opened and
	// closed, and /metrics scraped when it closed.
	cacheAtStart, cacheAtEnd artifacts.Stats
	scrape                   map[string]float64
}

// newWorkload builds a workload's inputs; it is not part of set-up.
func newWorkload(name string, seed uint64, window time.Duration) workload {
	switch name {
	case "cold-suite":
		return newCold(seed, window, suiteVariant(suitePrograms()))
	case "cold-programs":
		return newCold(seed, window, generated)
	case "adapt-churn":
		return newChurn(seed)
	}
	return nil
}

// runJob sends one job and waits for it on its done channel — never on
// a polling timer — then fetches the result.
func (b *bench) runJob(j *job) *sample {
	s := &sample{j: j}
	req := j.req
	req.ProgramID = j.prog.id
	s.start = time.Now()
	id, err := b.d.submit(req)
	s.admitted = time.Now()
	if err != nil {
		s.end, s.err, s.out = s.admitted, err, outcomeFailed
		if errors.Is(err, errRefused) {
			s.out = outcomeRefused
		}
		return s
	}
	s.id = id
	jb := b.d.srv.Pool().Get(id)
	if jb == nil {
		s.end, s.err, s.out = time.Now(), fmt.Errorf("job %s not found in the pool", id), outcomeFailed
		return s
	}
	t := time.NewTimer(jobWait)
	select {
	case <-jb.Done():
		t.Stop()
	case <-t.C:
		s.end, s.err, s.out = time.Now(), fmt.Errorf("job %s: no completion within %v", id, jobWait), outcomeFailed
		return s
	}
	s.done = time.Now()
	s.res, s.err = b.d.result(id)
	s.end = time.Now()
	st := jb.Status()
	s.created, s.started, s.finished = st.Created, st.Started, st.Finished
	if s.err != nil {
		s.out = outcomeFailed
	}
	return s
}

// runSession runs one session; a session that uploads a program
// reports its first verdict (upload through the last job's result).
func (b *bench) runSession(sess *session) []*sample {
	var t0 time.Time
	if p := sess.upload; p != nil {
		t0 = time.Now()
		id, err := b.d.upload(p.source)
		t1 := time.Now()
		if err != nil {
			s := &sample{j: &job{prog: p, req: sess.jobs[0].req}, start: t0, end: t1, err: err, out: outcomeFailed}
			b.record([]*sample{s}, -1)
			return []*sample{s}
		}
		p.id = id
		b.mu.Lock()
		b.uploads = append(b.uploads, upload{start: t0, end: t1})
		b.mu.Unlock()
	}
	var out []*sample
	for _, j := range sess.jobs {
		s := b.runJob(j)
		out = append(out, s)
		if s.out != outcomeOK {
			break
		}
	}
	first := -1.0
	if sess.upload != nil && len(out) == len(sess.jobs) && out[len(out)-1].out == outcomeOK {
		first = ms(out[len(out)-1].end.Sub(t0))
	}
	b.record(out, first)
	return out
}

// record files a session's samples under the current phase, with its
// first verdict in ms (negative: none).
func (b *bench) record(ss []*sample, first float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.phase {
	case phaseSetup:
		b.setupJs = append(b.setupJs, ss...)
		return
	case phaseWindow:
		b.samples = append(b.samples, ss...)
	case phaseOnboard:
		b.onboardJs = append(b.onboardJs, ss...)
	}
	if first >= 0 {
		b.first = append(b.first, first)
	}
}

// setupSessions runs set-up sessions on the clients, then computes the
// references for the jobs the measured run will draw from.
func (b *bench) setupSessions(sessions []*session, refJobs []*job) error {
	var next atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sessions) {
					return
				}
				for _, s := range b.runSession(sessions[i]) {
					if s.out != outcomeOK && errs[c] == nil {
						errs[c] = fmt.Errorf("set-up %s job on %s: %v", s.j.req.Kind, s.j.prog.name, s.err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	next.Store(0)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(refJobs) {
					return
				}
				j := refJobs[i]
				if _, err := b.refs.get(j.prog, j.req.Kind, j.exec()); err != nil && errs[c] == nil {
					errs[c] = err
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// boot starts a fresh daemon and runs the workload's set-up on it.
func boot(name string, seed uint64, w workload) (*bench, error) {
	b := &bench{name: name, seed: seed, refs: newReferences(), w: w}
	entries := 0
	if isCold(name) {
		entries = coldCacheEntries
	}
	var err error
	b.d, err = bootServer(entries)
	if err != nil {
		return nil, err
	}
	if err := b.w.setup(b); err != nil {
		b.d.close()
		return nil, err
	}
	return b, nil
}

// onboardSessions: after the measured window, once the daemon has
// finished the background refinements the window left, every workload
// but the cold ones onboards this many of cold-suite's never-seen suite
// variants; their first verdicts are the workload's
// first_verdict_p50_ms. Set-up onboards each corpus program once per
// round, too few first verdicts, over too short a time, for a steady
// median. Onboarding before the window would leave hundreds of
// programs' artifacts in the daemon's unbounded cache during it. The
// daemon keeps every program it is given, so its heap, and the garbage
// collector's work, grow with each variant: a fixed count, not a fixed
// time, gives every run the same growth.
const onboardSessions = 2000

// loop runs sessions next(0), next(1), ... on the clients while
// more(n) holds for the next session n, calling done(n) after session
// n, and returns the time taken.
func (b *bench) loop(more func(n uint64) bool, next func(n uint64) *session, done func(n uint64)) time.Duration {
	var count atomic.Uint64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := count.Add(1) - 1
				if !more(n) {
					return
				}
				b.runSession(next(n))
				done(n)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// drive runs the workload's closed loop for the given duration.
func (b *bench) drive(d time.Duration) (wall time.Duration) {
	b.phase = phaseWindow
	b.cacheAtStart = b.d.srv.Cache().Stats()
	deadline := time.Now().Add(d)
	wall = b.loop(func(uint64) bool { return time.Now().Before(deadline) }, b.w.next, func(n uint64) {
		if n+1 == rssSessions {
			b.rssMB = peakRSSMB()
		}
	})
	if b.rssMB == 0 {
		b.rssMB = peakRSSMB()
	}
	b.cacheAtEnd = b.d.srv.Cache().Stats()
	sc, err := b.d.scrape()
	if err != nil {
		fatal(fmt.Errorf("scrape /metrics: %w", err))
	}
	b.scrape = sc
	return wall
}

// onboard runs the onboarding phase (see onboardSessions).
func (b *bench) onboard() {
	// The variants are never used again: bound the artifact cache, as
	// cold-suite's is, so they do not pile up in it (unbounded, 3,000
	// of them held about 2 GB). The daemon is idle, so no job reads the bound meanwhile.
	b.d.srv.Cache().Bound(coldCacheEntries, 0)
	b.phase = phaseOnboard
	b.first = nil
	suite := suitePrograms()
	// Start from a collected heap, whatever the window left behind.
	runtime.GC()
	b.loop(func(n uint64) bool { return n < onboardSessions }, func(n uint64) *session {
		return variantSession(suite, b.seed, n)
	}, func(uint64) {})
}

// verify checks every finished job in ss against its reference. Jobs
// whose reference was not computed during set-up (cold programs and
// onboarded copies) get it computed here, after the timed window.
func (b *bench) verify(ss []*sample) []string {
	var mu sync.Mutex
	var wrong []string
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ss) {
					return
				}
				s := ss[i]
				if s.out != outcomeOK || s.j.req.Kind == "profile" {
					continue
				}
				ref, err := b.refs.get(s.j.prog, s.j.req.Kind, s.j.exec())
				if err == nil {
					err = ref.check(s.j.req.Kind, s.res)
				}
				if err != nil {
					s.out, s.err = outcomeWrong, err
					mu.Lock()
					wrong = append(wrong, fmt.Sprintf("%s %s %v: %v", s.j.req.Kind, s.j.prog.name, s.j.req.Inputs, err))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return wrong
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resetPeakRSS sets the process's VmHWM back to its current RSS.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err == nil {
		_, err = f.WriteString("5")
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fatal(fmt.Errorf("reset peak RSS: %w", err))
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func main() {
	wl := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "measured window, seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if !slices.Contains(workloadNames, *wl) {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", *wl, strings.Join(workloadNames, ", ")))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}

	window := time.Duration(*seconds * float64(time.Second))
	// The workload's inputs are built once, outside setup_s; set-up
	// only reads them.
	w := newWorkload(*wl, *seed, window)
	runtime.GC()
	// Set-up, several times; the last round's daemon is measured.
	var setups []float64
	var b *bench
	for r := 0; r < setupRounds; r++ {
		if b != nil {
			b.d.close()
			runtime.GC()
		}
		t := time.Now()
		nb, err := boot(*wl, *seed, w)
		if err != nil {
			fatal(fmt.Errorf("set-up: %w", err))
		}
		setups = append(setups, time.Since(t).Seconds())
		b = nb
	}
	defer b.d.close()
	// peak_rss_mb covers the window only: return what set-up freed to
	// the OS and restart the high-water mark from the current RSS.
	debug.FreeOSMemory()
	resetPeakRSS()

	// Cold sessions time their own first verdicts; the other workloads
	// onboard new programs after the window, once the daemon is idle.
	wall := b.drive(window)
	if !isCold(*wl) {
		if err := b.d.idle(jobWait); err != nil {
			fatal(err)
		}
		b.onboard()
	}
	// Set-up and onboarding jobs are checked too; a wrong verdict there
	// makes the run incorrect without counting as a measured job.
	wrong := b.verify(b.samples)
	wrong = append(wrong, b.verify(b.setupJs)...)
	wrong = append(wrong, b.verify(b.onboardJs)...)
	rep := b.report(wall, median(setups))
	var out metrics
	if *trace == 1 {
		out = b.traced(rep, min(window, replayBudget))
	} else {
		out = rep.e2e
	}
	rep.Metrics = out
	for _, w := range wrong {
		if len(rep.WrongShown) < 5 {
			rep.WrongShown = append(rep.WrongShown, w)
			fmt.Fprintln(os.Stderr, "wrong verdict:", w)
		}
	}
	rep.PeakRSSMB = peakRSSMB()
	writeReport(rep, *wl, *seed, *trace)
	printSummary(os.Stderr, rep)
	line, err := json.Marshal(map[string]any{
		"correct":   len(wrong) == 0,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   out,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// report holds everything a run measured.
type report struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FailedFrac float64            `json:"failed_frac"`
	Refused    int                `json:"refused"`
	WrongShown []string           `json:"wrong,omitempty"` // the first few wrong verdicts
	WallS      float64            `json:"wall_s"`
	PeakRSSMB  float64            `json:"peak_rss_end_mb"` // VmHWM when the run ends
	Latency    map[string]latency `json:"latency"`
	Metrics    metrics            `json:"metrics"`
	Layers     map[string]float64 `json:"layer_self_ms,omitempty"`
	Shares     map[string]float64 `json:"share,omitempty"`
	e2e        metrics
}

func (b *bench) report(wall time.Duration, setupS float64) *report {
	rep := &report{Workload: b.name, Seed: b.seed, WallS: wall.Seconds(), Latency: map[string]latency{}}
	outs := make([]outcome, len(b.samples))
	byKind := map[string][]float64{}
	var all []float64
	for i, s := range b.samples {
		outs[i] = s.out
		if s.out == outcomeRefused {
			rep.Refused++
		}
		if s.out != outcomeOK {
			continue
		}
		l := ms(s.latency())
		all = append(all, l)
		byKind[s.j.req.Kind] = append(byKind[s.j.req.Kind], l)
	}
	rep.Attempted = len(b.samples)
	rep.Failed, rep.FailedFrac = failedFrac(outs)
	rep.Latency["all"] = summarize(all)
	for k, v := range byKind {
		rep.Latency[k] = summarize(v)
	}
	rep.Latency["first_verdict"] = summarize(b.first)
	// Each metric pools the whole window (see NOTES.md, Metrics).
	m := metrics{}
	m.set("jobs_per_s", float64(len(all))/wall.Seconds(), "jobs/s")
	m.set("job_p50_ms", rep.Latency["all"].P50, "ms")
	m.set("job_p99_ms", rep.Latency["all"].Tail, "ms")
	for _, k := range []string{"race", "slice", "nullcheck", "profile"} {
		m.set(k+"_p50_ms", rep.Latency[k].P50, "ms")
	}
	m.set("first_verdict_p50_ms", rep.Latency["first_verdict"].P50, "ms")
	m.set("peak_rss_mb", b.rssMB, "MB")
	m.set("setup_s", setupS, "s")
	rep.e2e = m
	return rep
}

func writeReport(rep *report, wl string, seed uint64, trace int) {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: results dir:", err)
		return
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode report:", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", wl, seed, trace))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write report:", err)
	}
}

func printSummary(w *os.File, rep *report) {
	fmt.Fprintf(w, "perfbench %s seed %d: %d jobs attempted, %d failed (failed_frac %.4f fraction, %d refused), wall %.2f s, peak RSS at exit %.0f MB\n",
		rep.Workload, rep.Seed, rep.Attempted, rep.Failed, rep.FailedFrac, rep.Refused, rep.WallS, rep.PeakRSSMB)
	keys := make([]string, 0, len(rep.Latency))
	for k := range rep.Latency {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		l := rep.Latency[k]
		fmt.Fprintf(w, "  latency %-14s n=%-6d p50 %8.3f ms  p%g %8.3f ms\n", k, l.N, l.P50, l.TailPct, l.Tail)
	}
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	if len(rep.Shares) > 0 {
		fmt.Fprintln(w, "  self-time share of job latency:")
		names = names[:0]
		for k := range rep.Shares {
			names = append(names, k)
		}
		sort.Slice(names, func(i, j int) bool { return rep.Shares[names[i]] > rep.Shares[names[j]] })
		for _, k := range names {
			fmt.Fprintf(w, "    %-20s %6.1f%%\n", k, 100*rep.Shares[k])
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
