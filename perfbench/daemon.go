package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"oha/internal/artifacts"
	"oha/internal/server"
)

// Daemon sizing: the defaults of cmd/ohad on a 2-core machine.
const (
	serverWorkers = 2
	serverQueue   = 64
	// coldCacheEntries is the artifact cache's LRU bound on the cold
	// workloads, as a deployment would set it (-cache-entries).
	coldCacheEntries = 512
)

// daemon is the analysis service under test, booted in this process on
// a loopback listener.
type daemon struct {
	addr   string // host:port
	srv    *server.Server
	hs     *http.Server
	client *http.Client
}

// bootServer starts one daemon; cacheEntries > 0 bounds its artifact cache.
func bootServer(cacheEntries int) (*daemon, error) {
	cache := artifacts.New("")
	if cacheEntries > 0 {
		cache.Bound(cacheEntries, 0)
	}
	srv, err := server.New(server.Config{
		Workers:     serverWorkers,
		QueueSize:   serverQueue,
		JobTimeout:  60 * time.Second,
		Cache:       cache,
		Incremental: true,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		addr: ln.Addr().String(),
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true},
		},
	}
	go d.hs.Serve(ln) //nolint:errcheck // returns when close shuts it down
	return d, nil
}

// close stops the listener and drains the daemon; it returns once its
// workers have exited.
func (d *daemon) close() {
	d.hs.Close() //nolint:errcheck // listener teardown; nothing to report
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx) //nolint:errcheck // drain bounded by ctx
	d.client.CloseIdleConnections()
}

// idle waits, up to limit, until the daemon has no queued or running
// job (the adaptive refinements a job leaves behind run as pool jobs).
func (d *daemon) idle(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for d.srv.Pool().QueueDepth() > 0 || d.srv.Pool().Running() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon still busy after %v", limit)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// errRefused marks admission refusals (429/503), counted apart from
// failed jobs.
var errRefused = errors.New("refused")

// call sends one JSON request and decodes a JSON reply into out.
func (d *daemon) call(method, url string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// upload stores a program and returns its id.
func (d *daemon) upload(source string) (string, error) {
	var resp struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	status, err := d.call(http.MethodPost, "http://"+d.addr+"/v1/programs", map[string]string{"source": source}, &resp)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK && status != http.StatusCreated {
		return "", fmt.Errorf("upload: HTTP %d %s", status, resp.Error)
	}
	return resp.ID, nil
}

// submit posts a job and returns the job id.
func (d *daemon) submit(req server.JobRequest) (string, error) {
	var resp struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	status, err := d.call(http.MethodPost, "http://"+d.addr+"/v1/jobs", req, &resp)
	if err != nil {
		return "", err
	}
	switch status {
	case http.StatusAccepted:
		return resp.ID, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return "", fmt.Errorf("%w: HTTP %d %s", errRefused, status, resp.Error)
	}
	return "", fmt.Errorf("submit: HTTP %d %s", status, resp.Error)
}

// jobResult is the union of the daemon's job result payloads.
type jobResult struct {
	State  string `json:"state"`
	Error  string `json:"error"`
	Result struct {
		// profile
		Runs         int    `json:"runs"`
		InvariantsID string `json:"invariants_id"`
		Version      int    `json:"version"`
		// race
		Races    []string `json:"races"`
		FTChecks uint64   `json:"ft_checks"`
		// slice
		Lines      []int `json:"lines"`
		DynNodes   int   `json:"dyn_nodes"`
		TraceNodes int   `json:"trace_nodes"`
		// nullcheck
		NilSites         []int  `json:"nil_sites"`
		DischargedChecks int    `json:"discharged_checks"`
		DerefSites       int    `json:"deref_sites"`
		CheckedDerefs    uint64 `json:"checked_derefs"`
		// shared
		CheckEvents uint64  `json:"check_events"`
		RolledBack  bool    `json:"rolled_back"`
		Attempts    int     `json:"attempts"`
		Generation  int     `json:"generation"`
		Output      []int64 `json:"output"`
	} `json:"result"`
}

// result fetches a finished job's result.
func (d *daemon) result(id string) (*jobResult, error) {
	var res jobResult
	status, err := d.call(http.MethodGet, "http://"+d.addr+"/v1/jobs/"+id+"/result", nil, &res)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("result: HTTP %d %s", status, res.Error)
	}
	if res.State != string(server.StateDone) {
		return &res, fmt.Errorf("job %s: %s", res.State, res.Error)
	}
	return &res, nil
}

// scrape reads the daemon's /metrics exposition into name{labels} → value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get("http://" + d.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(line[i+1:], &v); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// sumMetric adds up every series of family name (any labels) in a
// scrape.
func sumMetric(scrape map[string]float64, name string) float64 {
	var total float64
	for k, v := range scrape {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}
