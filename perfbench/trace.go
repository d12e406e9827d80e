package main

import (
	"fmt"
	"strings"
	"time"
)

// layerOf maps a span name to the layer its self time is charged to in
// the share table.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "interp."), strings.HasPrefix(name, "server."), strings.HasPrefix(name, "client."):
		return name
	case name == "replay.job":
		return "replay.overhead"
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// traced builds the per-layer view of a finished run: spans for each
// measured job's HTTP round trips and server intervals, a direct-call
// replay of the job stream (at most budget long), counts from the
// daemon, and the share of job latency each layer's self time takes.
func (b *bench) traced(rep *report, budget time.Duration) metrics {
	tr := &tracer{}
	m := metrics{}

	// Client spans: the job as the caller saw it, split into the
	// submit round trip, the server's queue and run intervals (from the
	// job's status timestamps), and the result round trip.
	var admit, result, run, queue []float64
	for i, s := range b.samples {
		if s.out != outcomeOK {
			continue
		}
		root := tr.add("client.job", i, -1, s.start, s.end)
		tr.add("server.admit", i, root, s.start, s.admitted)
		tr.add("server.queue", i, root, s.created, s.started)
		tr.add("server.run", i, root, s.started, s.finished)
		tr.add("server.result", i, root, s.done, s.end)
		admit = append(admit, ms(s.admitted.Sub(s.start)))
		result = append(result, ms(s.end.Sub(s.done)))
		run = append(run, ms(s.finished.Sub(s.started)))
		queue = append(queue, ms(s.started.Sub(s.created)))
	}
	var uploads []float64
	for _, u := range b.uploads {
		uploads = append(uploads, ms(u.end.Sub(u.start)))
	}
	m.set("server.admit_ms", mean(admit), "ms")
	m.set("server.result_ms", mean(result), "ms")
	m.set("server.run_ms", mean(run), "ms")
	m.set("server.queue_wait_ms", mean(queue), "ms")
	m.set("server.upload_ms", mean(uploads), "ms")

	// Counts from the daemon: job results, /metrics, cache stats.
	scrape := b.scrape
	m.set("server.rejected_429", sumMetric(scrape, "ohad_jobs_rejected_total"), "count")
	cs := b.cacheAtEnd
	cs.Hits -= b.cacheAtStart.Hits
	cs.Misses -= b.cacheAtStart.Misses
	cs.Evictions -= b.cacheAtStart.Evictions
	m.set("artifacts.hits", float64(cs.Hits), "count")
	m.set("artifacts.misses", float64(cs.Misses), "count")
	m.set("artifacts.hit_frac", frac(float64(cs.Hits), float64(cs.Hits+cs.Misses)), "fraction")
	m.set("artifacts.evictions", float64(cs.Evictions), "count")
	b.resultCounts(m)
	icHits, icMiss := sumMetric(scrape, "oha_ic_hits_total"), sumMetric(scrape, "oha_ic_misses_total")
	m.set("interp.ic_hit_frac", frac(icHits, icHits+icMiss), "fraction")
	fpHits, fpSlow := sumMetric(scrape, "oha_trace_fastpath_hits_total"), sumMetric(scrape, "oha_trace_fastpath_slow_total")
	m.set("interp.fastpath_hit_frac", frac(fpHits, fpHits+fpSlow), "fraction")
	m.set("adapt.refinements", sumMetric(scrape, "oha_adapt_refinements_total"), "count")
	m.set("adapt.reconcile_ms", 1000*frac(sumMetric(scrape, "oha_adapt_resolve_seconds_sum"), sumMetric(scrape, "oha_adapt_resolve_seconds_count")), "ms")
	var incSum float64
	for _, ph := range []string{"pointsto", "mhp", "race"} {
		incSum += sumMetric(scrape, fmt.Sprintf(`oha_static_phase_seconds_sum{phase=%q,client="race"}`, ph))
	}
	incN := sumMetric(scrape, `oha_static_phase_seconds_count{phase="pointsto",client="race"}`)
	m.set("inc.reanalyze_ms", 1000*frac(incSum, incN), "ms")
	m.set("inc.reuse_ratio", sumMetric(scrape, "oha_inc_reuse_ratio"), "fraction")
	m.set("trace.jobs_per_s", rep.e2e["jobs_per_s"].Value, "jobs/s")
	m.set("trace.job_p50_ms", rep.e2e["job_p50_ms"].Value, "ms")

	// Direct-call replay: warm the replayer with the set-up jobs, then
	// replay measured jobs in completion order until the budget is spent.
	entries := 0
	if isCold(b.name) {
		entries = coldCacheEntries
	}
	rp := newReplayer(tr, entries)
	for _, s := range b.setupJs {
		if err := rp.replay(-1, s.j); err != nil {
			fatal(fmt.Errorf("replay set-up job %s on %s: %w", s.j.req.Kind, s.j.prog.name, err))
		}
	}
	deadline := time.Now().Add(budget)
	replayed := 0
	for i, s := range b.samples {
		if time.Now().After(deadline) {
			break
		}
		if s.out != outcomeOK {
			continue
		}
		if err := rp.replay(i, s.j); err != nil {
			fatal(fmt.Errorf("replay %s on %s: %w", s.j.req.Kind, s.j.prog.name, err))
		}
		replayed++
	}
	self := selfTimes(tr.spans)
	total := map[string]float64{}
	for _, sp := range tr.spans {
		total[sp.Name] += ms(sp.dur())
	}
	perJob := func(name string) float64 { return frac(total[name], float64(replayed)) }
	for _, name := range []string{"lang.compile", "profile.job", "invariants.merge", "pointsto.solve", "mhp.solve",
		"staticrace.solve", "staticrace.masks", "staticslice.solve", "nullcheck.proof", "interp.compile", "core.rollback"} {
		m.set(name+"_ms", perJob(name), "ms")
	}
	m.set("interp.run_ms", frac(total["interp.run"]-total["core.rollback"], float64(replayed)), "ms")
	m.set("interp.steps", frac(float64(rp.steps), float64(rp.analysis)), "count")
	m.set("interp.steps_per_s", frac(float64(rp.steps), (total["interp.run"]-total["core.rollback"])/1000), "1/s")
	var instrs, fused float64
	for _, v := range rp.images {
		instrs += float64(v[0])
		fused += float64(v[1])
	}
	m.set("interp.image_instrs", frac(instrs, float64(len(rp.images))), "count")
	m.set("interp.fused_instrs", frac(fused, float64(len(rp.images))), "count")
	m.set("staticrace.elided_frac", mean(rp.elided), "fraction")
	m.set("replay.jobs", float64(replayed), "count")

	// Shares: each replayed job's latency splits into the server's
	// queue and run intervals, the submit and result round trips
	// outside them (a fast job can start, even finish, before its POST
	// returns), and the client's remaining wait. The run interval is
	// split over the layers in proportion to the replay's self times for
	// the same job.
	jobLayer := map[int]map[string]float64{}
	for i, sp := range tr.spans {
		if sp.Name == "replay.probe" || tr.spans[rootOf(tr.spans, i)].Name != "replay.job" {
			continue
		}
		if jobLayer[sp.Job] == nil {
			jobLayer[sp.Job] = map[string]float64{}
		}
		jobLayer[sp.Job][layerOf(sp.Name)] += ms(self[i])
	}
	shares := map[string]float64{}
	for _, l := range shareLayers {
		shares[l] = 0
	}
	var latSum, runSum, replaySum float64
	for i, layers := range jobLayer {
		s := b.samples[i]
		lat := ms(s.latency())
		runT, queueT := ms(s.finished.Sub(s.started)), ms(s.started.Sub(s.created))
		admitT := ms(s.admitted.Sub(s.start) - overlap(s.start, s.admitted, s.created, s.finished))
		resultT := ms(s.end.Sub(s.done))
		latSum += lat
		runSum += runT
		replaySum += rp.replayedMS[i]
		shares["server.queue"] += queueT
		shares["server.admit"] += admitT
		shares["server.result"] += resultT
		shares["client.wait"] += lat - runT - queueT - admitT - resultT
		var lt float64
		for _, v := range layers {
			lt += v
		}
		for l, v := range layers {
			shares[l] += runT * frac(v, lt)
		}
	}
	for _, l := range shareLayers {
		shares[l] = frac(shares[l], latSum)
		m.set("share."+l, shares[l], "fraction")
	}
	m.set("replay.coverage", frac(replaySum, runSum), "fraction")
	rep.Shares = shares
	rep.Layers = map[string]float64{}
	for i, sp := range tr.spans {
		rep.Layers[sp.Name] += ms(self[i])
	}
	return m
}

// shareLayers are the rows of the share table, in pipeline order.
var shareLayers = []string{
	"server.admit", "server.queue", "lang", "profile", "invariants",
	"pointsto", "mhp", "staticrace", "staticslice", "nullcheck",
	"interp.compile", "core", "interp.run", "adapt", "replay.overhead",
	"server.result", "client.wait",
}

// overlap returns how much of [a, b] lies inside [c, d].
func overlap(a, b, c, d time.Time) time.Duration {
	if c.After(a) {
		a = c
	}
	if d.Before(b) {
		b = d
	}
	if b.After(a) {
		return b.Sub(a)
	}
	return 0
}

// rootOf follows parents to the top-level span.
func rootOf(spans []span, i int) int {
	for spans[i].Parent >= 0 {
		i = spans[i].Parent
	}
	return i
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resultCounts derives per-job counts from the finished jobs' results.
func (b *bench) resultCounts(m metrics) {
	var ftChecks, ftEvents, traceNodes, dynNodes, checked, runs, attempts []float64
	var discharged, derefs float64
	rolled, analyses := 0, 0
	for _, s := range b.samples {
		if s.out != outcomeOK {
			continue
		}
		r := &s.res.Result
		switch s.j.req.Kind {
		case "profile":
			runs = append(runs, float64(r.Runs))
			continue
		case "race":
			ftChecks = append(ftChecks, float64(r.FTChecks))
			ftEvents = append(ftEvents, float64(r.CheckEvents))
		case "slice":
			traceNodes = append(traceNodes, float64(r.TraceNodes))
			dynNodes = append(dynNodes, float64(r.DynNodes))
		case "nullcheck":
			checked = append(checked, float64(r.CheckedDerefs))
			discharged += float64(r.DischargedChecks)
			derefs += float64(r.DerefSites)
		}
		analyses++
		if r.RolledBack {
			rolled++
		}
		if s.j.req.Adapt {
			attempts = append(attempts, float64(r.Attempts))
		}
	}
	m.set("profile.runs", mean(runs), "count")
	m.set("fasttrack.checks", mean(ftChecks), "count")
	m.set("fasttrack.check_events", mean(ftEvents), "count")
	m.set("dynslice.trace_nodes", mean(traceNodes), "count")
	m.set("dynslice.dyn_nodes", mean(dynNodes), "count")
	m.set("nullcheck.checked_derefs", mean(checked), "count")
	m.set("nullcheck.discharge_frac", frac(discharged, derefs), "fraction")
	m.set("core.rollback_frac", frac(float64(rolled), float64(analyses)), "fraction")
	m.set("adapt.attempts_per_job", mean(attempts), "count")
}
