package server

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"oha/internal/workloads"
)

// TestServerICMetricsWarmJob drives the daemon's speculative-dispatch
// counters end to end: profile a dispatch-heavy program (monomorphic
// table loads), run one race job predicated on the resulting invariant
// DB, then run an identical warm job — the second job's compiled image
// comes straight from the artifact cache, and its inline caches must
// still register hits (the counters measure execution, not
// compilation). Fusion executes in both engines' images, so
// oha_fused_instructions must also advance.
func TestServerICMetricsWarmJob(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, QueueSize: 16, JobTimeout: 30 * time.Second})
	w := workloads.ByName("dispatch-mono")
	id := c.submitProgram(w.Source)

	status, jobID := c.submitJob(JobRequest{
		Kind: "profile", ProgramID: id, Inputs: w.GenInput(0), Runs: 8, SaveAs: "ic",
	})
	if status != http.StatusAccepted {
		t.Fatalf("profile submit: status %d", status)
	}
	c.awaitDone(jobID)

	runRace := func() {
		t.Helper()
		status, jid := c.submitJob(JobRequest{
			Kind: "race", ProgramID: id, Inputs: w.GenInput(0), InvariantsID: "ic",
		})
		if status != http.StatusAccepted {
			t.Fatalf("race submit: status %d", status)
		}
		c.awaitDone(jid)
	}

	// Cold job: compiles the speculative image and runs it.
	runRace()
	_, mx := c.text("/metrics")
	hits1 := metricValue(t, mx, "oha_ic_hits_total")
	fused1 := metricValue(t, mx, "oha_fused_instructions")
	if hits1 == 0 {
		t.Fatalf("cold job: no inline-cache hits\n%s", mx)
	}
	if fused1 == 0 {
		t.Fatalf("cold job: no fused instructions executed\n%s", mx)
	}
	cacheHits1 := metricValue(t, mx, "ohad_artifact_cache_hits")

	// Warm job: identical setup, image served from the cache — the
	// inline caches are baked into the image, so hits keep accruing.
	runRace()
	_, mx = c.text("/metrics")
	if hits2 := metricValue(t, mx, "oha_ic_hits_total"); hits2 <= hits1 {
		t.Fatalf("warm job: ic hits %v -> %v, want an increase", hits1, hits2)
	}
	if fused2 := metricValue(t, mx, "oha_fused_instructions"); fused2 <= fused1 {
		t.Fatalf("warm job: fused %v -> %v, want an increase", fused1, fused2)
	}
	if cacheHits2 := metricValue(t, mx, "ohad_artifact_cache_hits"); cacheHits2 <= cacheHits1 {
		t.Fatalf("warm job did not reuse cached artifacts (%v -> %v)", cacheHits1, cacheHits2)
	}

	// A monomorphic run that never leaves the speculated callee sets
	// must not deoptimize any site.
	if deopts := metricValue(t, mx, "oha_ic_deopts_total"); deopts != 0 {
		t.Fatalf("monomorphic runs deoptimized %v sites", deopts)
	}

	// GET /speculation surfaces the same counters in its listing.
	var spec struct {
		Dispatch map[string]uint64 `json:"dispatch"`
	}
	if status := c.do(http.MethodGet, "/speculation", nil, &spec); status != http.StatusOK {
		t.Fatalf("/speculation: status %d", status)
	}
	if spec.Dispatch["ic_hits"] == 0 || spec.Dispatch["fused_instructions"] == 0 {
		t.Fatalf("/speculation dispatch counters not surfaced: %v", spec.Dispatch)
	}
}

// TestServerFastPathMetricsClientLabel: the fast-path counters label a
// nullcheck job with the client's registered name, the label every
// other per-client family uses.
func TestServerFastPathMetricsClientLabel(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueSize: 8, JobTimeout: 30 * time.Second})
	id := c.submitProgram(nullSrc)
	_, profID := c.submitJob(JobRequest{
		Kind: "profile", ProgramID: id, Inputs: []int64{50, 500}, Runs: 8, SaveAs: "null-label",
	})
	c.awaitDone(profID)
	_, nullID := c.submitJob(JobRequest{
		Kind: "nullcheck", ProgramID: id, Inputs: []int64{50, 500}, InvariantsID: "null-label",
	})
	c.awaitDone(nullID)

	_, mx := c.text("/metrics")
	for _, name := range []string{"oha_trace_fastpath_hits_total", "oha_trace_fastpath_slow_total"} {
		if !strings.Contains(mx, name+`{client="nullcheck"}`) {
			t.Fatalf("%s has no client=\"nullcheck\" series:\n%s", name, mx)
		}
		if strings.Contains(mx, name+`{client="null"}`) {
			t.Fatalf("%s still has a client=\"null\" series:\n%s", name, mx)
		}
	}
}
