package main

// Remote mode: with -remote URL, oha runs its subcommand against a
// running ohad daemon (or any node of an ohad fleet — every node
// answers every request) instead of analyzing in-process. The program
// source is uploaded first (submission is idempotent: the id is the
// source digest), then the job is submitted and polled to completion.
// In this mode -inv names a server-side invariant-DB id, not a local
// file: `profile` stores its merged DB under that id, `race`/`slice`
// speculate against it. All requests go through the fleet client, so
// 429 sheds are retried with the server's Retry-After hint plus
// jitter, and 503s/transport blips back off exponentially.

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"oha/internal/fleet"
)

type remoteOpts struct {
	inputs    []int64
	seed      uint64
	runs      int
	out       string
	inv       string
	baseline  bool
	adaptive  bool
	criterion int
	budget    int
	src       string
}

// remoteError mirrors the daemon's {"error": "..."} payload.
type remoteError struct {
	Error string `json:"error"`
}

type remoteJob struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

type remoteCounts struct {
	VisitedBlocks   int
	MustAliasPairs  int
	SingletonSpawns int
	ElidableLocks   int
	CalleeSites     int
	CalleeTargets   int
	Contexts        int
}

type remoteProfileResult struct {
	Runs         int          `json:"runs"`
	InvariantsID string       `json:"invariants_id"`
	Version      int          `json:"version"`
	Counts       remoteCounts `json:"counts"`
}

// remoteSpeculation is the part of every analysis job result the
// daemon shapes identically (server.Speculation).
type remoteSpeculation struct {
	RolledBack bool   `json:"rolled_back"`
	Violation  string `json:"violation"`
	Generation int    `json:"generation"`
	Attempts   int    `json:"attempts"`
}

// print narrates the speculation ahead of the client's verdict;
// fallback names the analysis a rollback re-ran.
func (s remoteSpeculation) print(adaptive bool, fallback string) {
	if s.RolledBack && !adaptive {
		fmt.Printf("mis-speculation (%s): rolled back to %s\n", s.Violation, fallback)
	}
	if adaptive {
		fmt.Printf("adaptive: generation %d after %d attempt(s)\n", s.Generation, s.Attempts)
	}
}

type remoteRaceResult struct {
	remoteSpeculation
	Races           []string `json:"races"`
	InstrumentedOps uint64   `json:"instrumented_ops"`
}

type remoteNullResult struct {
	remoteSpeculation
	NilSites         []int  `json:"nil_sites"`
	NilDerefs        uint64 `json:"nil_derefs"`
	DischargedChecks int    `json:"discharged_checks"`
	DerefSites       int    `json:"deref_sites"`
	CheckedDerefs    uint64 `json:"checked_derefs"`
}

type remoteSliceResult struct {
	remoteSpeculation
	CriterionIndex int   `json:"criterion_index"`
	CriterionLine  int   `json:"criterion_line"`
	SliceInstrs    int   `json:"slice_instrs"`
	DynNodes       int   `json:"dyn_nodes"`
	Lines          []int `json:"lines"`
}

func runRemote(base, cmd string, o remoteOpts) error {
	base = strings.TrimRight(base, "/")
	c := fleet.NewClient()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	// Upload the source; the daemon dedups by digest, so re-running a
	// command against the same file is free.
	var sub struct {
		ID      string `json:"id"`
		Created bool   `json:"created"`
	}
	status, err := c.JSON(ctx, http.MethodPost, base+"/v1/programs",
		map[string]string{"source": o.src}, &sub)
	if err != nil {
		return err
	}
	if status != http.StatusOK && status != http.StatusCreated {
		return fmt.Errorf("submit program: HTTP %d", status)
	}

	job := map[string]any{
		"kind":       cmd,
		"program_id": sub.ID,
		"inputs":     o.inputs,
		"seed":       o.seed,
	}
	switch cmd {
	case "profile":
		if o.inv == "" {
			return fmt.Errorf("remote profile needs -inv NAME (the server-side invariant-DB id to store under)")
		}
		job["runs"] = o.runs
		job["save_as"] = o.inv
	case "race", "nullcheck":
		if o.inv == "" && !o.baseline {
			return fmt.Errorf("remote %s needs -inv NAME (a server-side invariant-DB id; run `oha -remote %s profile` first)", cmd, base)
		}
		job["invariants_id"] = o.inv
		job["baseline"] = o.baseline
		job["adapt"] = o.adaptive
	case "slice":
		if o.inv == "" {
			return fmt.Errorf("remote slice needs -inv NAME (a server-side invariant-DB id; run `oha -remote %s profile` first)", base)
		}
		job["invariants_id"] = o.inv
		job["adapt"] = o.adaptive
		job["budget"] = o.budget
		if o.criterion >= 0 {
			job["criterion"] = o.criterion
		}
	}

	var accepted remoteJob
	status, err = c.JSON(ctx, http.MethodPost, base+"/v1/jobs", job, &accepted)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		var rerr remoteError
		c.JSON(ctx, http.MethodGet, base+"/v1/jobs/"+accepted.ID, nil, &rerr) //nolint:errcheck
		return fmt.Errorf("submit job: HTTP %d %s", status, rerr.Error)
	}
	fmt.Fprintf(os.Stderr, "oha: remote job %s on program %.12s…\n", accepted.ID, sub.ID)

	resultURL := base + "/v1/jobs/" + accepted.ID + "/result"
	for {
		var st remoteJob
		if _, err := c.JSON(ctx, http.MethodGet, base+"/v1/jobs/"+accepted.ID, nil, &st); err != nil {
			return err
		}
		switch st.State {
		case "done":
		case "failed":
			return fmt.Errorf("remote job %s failed: %s", accepted.ID, st.Error)
		default:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(100 * time.Millisecond):
			}
			continue
		}
		break
	}

	switch cmd {
	case "profile":
		var wrap struct {
			Result remoteProfileResult `json:"result"`
		}
		if _, err := c.JSON(ctx, http.MethodGet, resultURL, nil, &wrap); err != nil {
			return err
		}
		res := wrap.Result
		fmt.Fprintf(os.Stderr, "profiled %d executions; invariants %q version %d: %+v\n",
			res.Runs, res.InvariantsID, res.Version, res.Counts)
		if o.out != "" {
			st, body, _, err := c.Text(ctx, http.MethodGet, base+"/v1/invariants/"+o.inv, nil)
			if err != nil {
				return err
			}
			if st != http.StatusOK {
				return fmt.Errorf("fetch invariants %q: HTTP %d", o.inv, st)
			}
			if err := os.WriteFile(o.out, body, 0o644); err != nil {
				return err
			}
		}

	case "race":
		var wrap struct {
			Result remoteRaceResult `json:"result"`
		}
		if _, err := c.JSON(ctx, http.MethodGet, resultURL, nil, &wrap); err != nil {
			return err
		}
		res := wrap.Result
		res.print(o.adaptive, "hybrid analysis")
		if len(res.Races) == 0 {
			fmt.Println("no data races detected")
		}
		for _, r := range res.Races {
			fmt.Println(r)
		}
		fmt.Printf("instrumented ops: %d\n", res.InstrumentedOps)

	case "nullcheck":
		var wrap struct {
			Result remoteNullResult `json:"result"`
		}
		if _, err := c.JSON(ctx, http.MethodGet, resultURL, nil, &wrap); err != nil {
			return err
		}
		res := wrap.Result
		res.print(o.adaptive, "hybrid analysis")
		if len(res.NilSites) == 0 {
			fmt.Println("no nil dereferences observed")
		}
		for _, site := range res.NilSites {
			fmt.Printf("nil dereference at site %d\n", site)
		}
		fmt.Printf("null checks executed: %d (deref sites: %d, statically discharged: %d)\n",
			res.CheckedDerefs, res.DerefSites, res.DischargedChecks)

	case "slice":
		var wrap struct {
			Result remoteSliceResult `json:"result"`
		}
		if _, err := c.JSON(ctx, http.MethodGet, resultURL, nil, &wrap); err != nil {
			return err
		}
		res := wrap.Result
		res.print(o.adaptive, "hybrid slicing")
		fmt.Printf("dynamic slice of print #%d (criterion line %d): %d instructions, %d dynamic nodes\n",
			res.CriterionIndex, res.CriterionLine, res.SliceInstrs, res.DynNodes)
		lines := append([]int(nil), res.Lines...)
		sort.Ints(lines)
		srcLines := strings.Split(o.src, "\n")
		for _, l := range lines {
			if l-1 >= 0 && l-1 < len(srcLines) {
				fmt.Printf("%4d: %s\n", l, strings.TrimRight(srcLines[l-1], " \t"))
			}
		}
	}

	r429, rNet := c.Retries()
	if r429+rNet > 0 {
		fmt.Fprintf(os.Stderr, "oha: retried %d shed (429) and %d transient failures with backoff\n", r429, rNet)
	}
	return nil
}
