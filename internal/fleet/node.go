package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"oha/internal/invariants"
	"oha/internal/metrics"
	"oha/internal/server"
)

// fleetForwardedHeader marks a request already routed by a peer. A
// forwarded request is always served locally, so routing can never
// loop even when two nodes disagree about ownership.
const fleetForwardedHeader = "X-Fleet-Forwarded"

// Config sizes one fleet node.
type Config struct {
	// Self is this node's advertised host:port — it must appear in
	// Peers spelled identically, since placement hashes the strings.
	Self string
	// Peers is the full static member list (the -peers flag), including
	// Self (added if missing).
	Peers []string
	// Replicas is the replica-set width for programs and invariant
	// shards (<= 0: 2).
	Replicas int
	// VNodes is the virtual nodes per member on the ring (<= 0: 64).
	VNodes int
	// HealthInterval is the peer health-poll period (<= 0: 1s).
	HealthInterval time.Duration
	// ReplicationInterval is the log-pull period (<= 0: 250ms).
	ReplicationInterval time.Duration
	// Server configures the wrapped analysis daemon. Its Programs,
	// Invariants, and OnGeneration fields are overwritten by the node's
	// fleet tiers.
	Server server.Config
}

// Node wraps a server.Server with the fleet layer: digest-routed job
// placement, the replicated invariant log, fleet-global admission
// control, and the /fleet/* internal API. The wrapped daemon keeps no
// authoritative state of its own — both state tiers route through the
// ring — so any node can serve any request.
type Node struct {
	cfg      Config
	ring     *Ring
	mem      *Membership
	client   *Client
	poll     *http.Client // short-timeout client for health/log pulls
	progs    *ProgramTier
	invs     *InvariantTier
	srv      *server.Server
	mux      *http.ServeMux
	queueCap int

	cursorMu sync.Mutex
	cursors  map[string]int64 // per-peer log replay position

	jobsLocal     *metrics.Counter
	jobsForwarded *metrics.Counter
	jobsShed      *metrics.Counter
	logApplied    *metrics.Counter
	logSkipped    *metrics.Counter
	replErrors    *metrics.Counter

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewNode builds a fleet node around a fresh daemon.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, errors.New("fleet: Config.Self is required")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.ReplicationInterval <= 0 {
		cfg.ReplicationInterval = 250 * time.Millisecond
	}
	peers := cfg.Peers
	found := false
	for _, p := range peers {
		if p == cfg.Self {
			found = true
		}
	}
	if !found {
		peers = append(append([]string(nil), peers...), cfg.Self)
	}

	n := &Node{
		cfg:     cfg,
		ring:    NewRing(peers, cfg.VNodes),
		client:  NewClient(),
		poll:    &http.Client{Timeout: 3 * time.Second},
		mux:     http.NewServeMux(),
		cursors: map[string]int64{},
		stop:    make(chan struct{}),
	}
	n.queueCap = cfg.Server.QueueSize
	if n.queueCap <= 0 {
		n.queueCap = 64
	}
	n.mem = NewMembership(cfg.Self, peers, func() Health { return n.selfHealth() })

	invStore, err := server.OpenInvariantStore(cfg.Server.StateDir)
	if err != nil {
		return nil, fmt.Errorf("fleet: open invariant store: %w", err)
	}
	n.progs = NewProgramTier(cfg.Self, n.ring, n.mem, n.client, cfg.Replicas, server.NewProgramStore())
	n.invs = NewInvariantTier(cfg.Self, n.ring, n.mem, n.client, cfg.Replicas, invStore)

	srvCfg := cfg.Server
	srvCfg.Programs = n.progs
	srvCfg.Invariants = n.invs
	srvCfg.OnGeneration = n.onGeneration
	n.srv, err = server.New(srvCfg)
	if err != nil {
		return nil, err
	}

	reg := n.srv.Metrics()
	n.jobsLocal = reg.NewCounter("oha_fleet_jobs_local_total", "jobs this node served as owner")
	n.jobsForwarded = reg.NewCounter("oha_fleet_jobs_forwarded_total", "jobs forwarded to their digest owner")
	n.jobsShed = reg.NewCounter("oha_fleet_shed_total", "jobs shed with 429 because every replica was saturated")
	n.logApplied = reg.NewCounter("oha_fleet_log_applied_total", "replicated log records applied locally")
	n.logSkipped = reg.NewCounter("oha_fleet_log_skipped_total", "replicated log records skipped as already applied")
	n.replErrors = reg.NewCounter("oha_fleet_replication_errors_total", "log records that failed to apply")
	reg.NewGaugeFunc("oha_fleet_peers_alive", "fleet members currently believed alive",
		func() float64 { return float64(n.mem.AliveCount()) })
	reg.NewGaugeFunc("oha_fleet_log_len", "records in this node's leader log",
		func() float64 { return float64(n.invs.Log().Len()) })

	n.routes()
	return n, nil
}

// Server exposes the wrapped daemon (for tests and embedding).
func (n *Node) Server() *server.Server { return n.srv }

// Membership exposes the node's peer view.
func (n *Node) Membership() *Membership { return n.mem }

// Ring exposes the placement ring.
func (n *Node) Ring() *Ring { return n.ring }

// Invariants exposes the invariant tier.
func (n *Node) Invariants() *InvariantTier { return n.invs }

// Programs exposes the program tier.
func (n *Node) Programs() *ProgramTier { return n.progs }

// Handler returns the node's HTTP handler: the fleet routing layer in
// front of the daemon's API.
func (n *Node) Handler() http.Handler { return n.mux }

// Start launches the health-poll and log-replication loops.
func (n *Node) Start() {
	n.mem.Start(n.cfg.HealthInterval)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTicker(n.cfg.ReplicationInterval)
		defer t.Stop()
		for {
			select {
			case <-n.stop:
				return
			case <-t.C:
				n.Replicate()
			}
		}
	}()
}

// Shutdown stops the fleet loops and drains the daemon.
func (n *Node) Shutdown(ctx context.Context) error {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
	n.mem.Stop()
	return n.srv.Shutdown(ctx)
}

// selfHealth snapshots this node's live load for gossip and routing.
func (n *Node) selfHealth() Health {
	pool := n.srv.Pool()
	draining := pool.Draining()
	return Health{
		Addr:     n.cfg.Self,
		Ready:    !draining,
		Draining: draining,
		Queue:    pool.QueueDepth(),
		QueueCap: n.queueCap,
		Running:  int(pool.Running()),
		Programs: n.progs.Len(),
	}
}

// onGeneration is the server's adapt hook: push a refined generation
// into the replicated history (best effort — the next job republishes
// if the leader was briefly unreachable).
func (n *Node) onGeneration(invID, progID string, _ int, db *invariants.DB) {
	if _, err := n.invs.PublishRefined(invID, progID, db); err != nil {
		n.replErrors.Inc()
	}
}

// ------------------------------------------------------------- routing

func (n *Node) routes() {
	n.mux.HandleFunc("POST /v1/jobs", n.handleSubmitJob)
	n.mux.HandleFunc("GET /v1/jobs/{id}", n.handleJobGet)
	n.mux.HandleFunc("GET /v1/jobs/{id}/result", n.handleJobGet)
	n.mux.HandleFunc("GET /fleet/health", n.handleFleetHealth)
	n.mux.HandleFunc("GET /fleet/ring", n.handleFleetRing)
	n.mux.HandleFunc("GET /fleet/log", n.handleFleetLog)
	n.mux.HandleFunc("POST /fleet/programs", n.handleFleetPushProgram)
	n.mux.HandleFunc("GET /fleet/programs/{id}", n.handleFleetGetProgram)
	n.mux.HandleFunc("GET /fleet/invariants/{id}", n.handleFleetGetInvariants)
	n.mux.HandleFunc("GET /fleet/invariants/{id}/meta", n.handleFleetInvariantMeta)
	n.mux.HandleFunc("POST /fleet/invariants/{id}/refine", n.handleFleetRefine)
	n.mux.Handle("/", n.srv.Handler())
}

func nodeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response already committed
}

func nodeError(w http.ResponseWriter, status int, format string, args ...any) {
	nodeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// splitJobID splits a fleet job id "job-3@host:port" into its local id
// and owner address (owner "" when the id carries no placement).
func splitJobID(full string) (local, owner string) {
	if i := strings.LastIndex(full, "@"); i >= 0 {
		return full[:i], full[i+1:]
	}
	return full, ""
}

// respBuffer captures a handler's response so the fleet layer can
// inspect the status (for failover) and rewrite job ids before
// committing it to the wire.
type respBuffer struct {
	header http.Header
	status int
	buf    bytes.Buffer
	// rewrite, when set, is applied to the JSON "id" field at flush.
	rewrite func(string) string
}

func newRespBuffer() *respBuffer { return &respBuffer{header: http.Header{}, status: http.StatusOK} }

func (r *respBuffer) Header() http.Header         { return r.header }
func (r *respBuffer) WriteHeader(status int)      { r.status = status }
func (r *respBuffer) Write(b []byte) (int, error) { return r.buf.Write(b) }

// flushTo commits the buffered response.
func (r *respBuffer) flushTo(w http.ResponseWriter) {
	body := r.buf.Bytes()
	if r.rewrite != nil && r.status < 300 && len(body) > 0 {
		// Only "id" is decoded and re-encoded; every other value is
		// copied verbatim (a generic decode would round integers above
		// 2^53 through float64).
		var m map[string]json.RawMessage
		var id *string // nil: no string id (absent or null)
		if json.Unmarshal(body, &m) == nil && json.Unmarshal(m["id"], &id) == nil && id != nil {
			m["id"], _ = json.Marshal(r.rewrite(*id)) // a string always encodes
			if out, err := json.MarshalIndent(m, "", "  "); err == nil {
				body = append(out, '\n')
			}
		}
	}
	for k, vs := range r.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Del("Content-Length") // the rewrite may have changed it
	w.WriteHeader(r.status)
	w.Write(body) //nolint:errcheck // response already committed
}

// stampSelf appends this node's address to a bare job id so later
// polls route straight back here from any frontend.
func (n *Node) stampSelf(id string) string {
	if strings.Contains(id, "@") {
		return id
	}
	return id + "@" + n.cfg.Self
}

// runJobLocally runs a job request on the wrapped daemon into a
// buffer, with the job id stamped with this node's address.
func (n *Node) runJobLocally(r *http.Request, body []byte) *respBuffer {
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	rec := newRespBuffer()
	rec.rewrite = n.stampSelf
	n.srv.Handler().ServeHTTP(rec, r2)
	return rec
}

// serveJobLocally is runJobLocally committed straight to the wire.
func (n *Node) serveJobLocally(w http.ResponseWriter, r *http.Request, body []byte) {
	n.runJobLocally(r, body).flushTo(w)
}

// forwardBuffered forwards a request to a peer and buffers the
// response; nil on transport error (the peer is marked down).
func (n *Node) forwardBuffered(r *http.Request, target string, body []byte) *respBuffer {
	resp, err := n.forwardReq(r, target, body)
	if err != nil {
		n.mem.MarkDown(target)
		return nil
	}
	defer resp.Body.Close()
	rec := newRespBuffer()
	rec.status = resp.StatusCode
	rec.header = resp.Header.Clone()
	io.Copy(&rec.buf, io.LimitReader(resp.Body, 8<<20)) //nolint:errcheck // truncated relay is still a relay
	return rec
}

// forwardReq re-sends a request to a peer, marked as fleet-forwarded.
// The caller owns the response body.
func (n *Node) forwardReq(r *http.Request, target string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, "http://"+target+r.URL.RequestURI(), rd)
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	req.Header.Set(fleetForwardedHeader, n.cfg.Self)
	return n.poll.Do(req)
}

// relay copies a forwarded response to the client verbatim.
func relay(w http.ResponseWriter, resp *http.Response) {
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // response already committed
}

// saturated reports whether a node's queue has no room per its last
// gossiped health.
func saturated(h Health) bool {
	return h.QueueCap > 0 && h.Queue >= h.QueueCap
}

// handleSubmitJob places a job on the owner of its program digest: the
// first ready replica, falling over on dead or saturated nodes, and
// shedding with 429 + Retry-After when the whole replica set is full —
// fleet-level admission control over the per-node bounded pools.
func (n *Node) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		nodeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if r.Header.Get(fleetForwardedHeader) != "" {
		n.jobsLocal.Inc()
		n.serveJobLocally(w, r, body)
		return
	}
	var req struct {
		ProgramID string `json:"program_id"`
	}
	if err := json.Unmarshal(body, &req); err != nil || req.ProgramID == "" {
		// Unroutable request: let the daemon produce its own 400/404.
		n.serveJobLocally(w, r, body)
		return
	}
	owners := n.ring.Owners(programKey(req.ProgramID), n.cfg.Replicas)
	var candidates []string
	for _, o := range owners {
		if n.mem.Ready(o) {
			candidates = append(candidates, o)
		}
	}
	if len(candidates) == 0 {
		nodeError(w, http.StatusServiceUnavailable, "no ready owner for program %s", req.ProgramID)
		return
	}
	// Fleet-global shed: when every ready replica's queue is full per
	// its last gossiped health, reject here instead of burning a
	// forward that will bounce anyway.
	allFull := true
	for _, o := range candidates {
		if !saturated(n.mem.Health(o)) {
			allFull = false
			break
		}
	}
	if allFull {
		n.jobsShed.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(n.srv.RetryAfter()))
		nodeError(w, http.StatusTooManyRequests, "fleet saturated: all %d replicas of program %s have full queues", len(candidates), req.ProgramID)
		return
	}
	var last *respBuffer
	for _, o := range candidates {
		var rec *respBuffer
		if o == n.cfg.Self {
			rec = n.runJobLocally(r, body)
		} else {
			rec = n.forwardBuffered(r, o, body)
		}
		if rec == nil {
			continue // transport error: owner marked down, try the next
		}
		if rec.status == http.StatusTooManyRequests || rec.status == http.StatusServiceUnavailable {
			// This replica is full or draining; the next one also holds
			// the program's artifacts warm. Keep the rejection in case
			// every replica says the same.
			last = rec
			continue
		}
		if o == n.cfg.Self {
			n.jobsLocal.Inc()
		} else {
			n.jobsForwarded.Inc()
		}
		rec.flushTo(w)
		return
	}
	if last != nil {
		// Every replica rejected: relay the final rejection (its
		// Retry-After came from the owner's own backlog estimate).
		n.jobsShed.Inc()
		last.flushTo(w)
		return
	}
	nodeError(w, http.StatusServiceUnavailable, "no reachable owner for program %s", req.ProgramID)
}

// handleJobGet routes job polls by the owner address baked into the
// job id at submit time.
func (n *Node) handleJobGet(w http.ResponseWriter, r *http.Request) {
	full := r.PathValue("id")
	local, owner := splitJobID(full)
	if owner == "" || owner == n.cfg.Self || r.Header.Get(fleetForwardedHeader) != "" {
		// Serve from the local pool under the bare id, then restore the
		// fleet id so clients keep polling the same handle.
		r2 := r.Clone(r.Context())
		path := "/v1/jobs/" + local
		if strings.HasSuffix(r.URL.Path, "/result") {
			path += "/result"
		}
		r2.URL.Path = path
		r2.URL.RawPath = ""
		rec := newRespBuffer()
		rec.rewrite = func(string) string { return full }
		n.srv.Handler().ServeHTTP(rec, r2)
		rec.flushTo(w)
		return
	}
	if !n.mem.Alive(owner) {
		nodeError(w, http.StatusBadGateway, "job owner %s is down", owner)
		return
	}
	resp, err := n.forwardReq(r, owner, nil)
	if err != nil {
		n.mem.MarkDown(owner)
		nodeError(w, http.StatusBadGateway, "job owner %s unreachable: %v", owner, err)
		return
	}
	defer resp.Body.Close()
	relay(w, resp)
}

// ------------------------------------------------------ fleet internal

func (n *Node) handleFleetHealth(w http.ResponseWriter, r *http.Request) {
	nodeJSON(w, http.StatusOK, n.selfHealth())
}

// handleFleetRing reports placement: the member list and, for
// ?program= or ?invariants=, the replica set (and acting leader).
func (n *Node) handleFleetRing(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"self":     n.cfg.Self,
		"nodes":    n.ring.Nodes(),
		"replicas": n.cfg.Replicas,
	}
	if id := r.URL.Query().Get("program"); id != "" {
		out["key"] = id
		out["owners"] = n.ring.Owners(programKey(id), n.cfg.Replicas)
	}
	if id := r.URL.Query().Get("invariants"); id != "" {
		out["key"] = id
		out["owners"] = n.invs.Owners(id)
		if leader, err := n.invs.leader(id); err == nil {
			out["leader"] = leader
		}
	}
	nodeJSON(w, http.StatusOK, out)
}

func (n *Node) handleFleetLog(w http.ResponseWriter, r *http.Request) {
	from := int64(0)
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			nodeError(w, http.StatusBadRequest, "bad from %q", q)
			return
		}
		from = v
	}
	recs := n.invs.Log().Since(from)
	if recs == nil {
		recs = []Record{}
	}
	nodeJSON(w, http.StatusOK, recs)
}

// handleFleetPushProgram accepts a replicated program source. It goes
// straight to the local store — no re-replication, no ping-pong.
func (n *Node) handleFleetPushProgram(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Source string `json:"source"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&req); err != nil || req.Source == "" {
		nodeError(w, http.StatusBadRequest, "bad push body")
		return
	}
	sp, created, err := n.progs.Local().Submit(req.Source)
	if err != nil {
		nodeError(w, http.StatusUnprocessableEntity, "compile: %v", err)
		return
	}
	nodeJSON(w, http.StatusOK, map[string]any{"id": sp.ID, "created": created})
}

func (n *Node) handleFleetGetProgram(w http.ResponseWriter, r *http.Request) {
	sp := n.progs.Local().Get(r.PathValue("id"))
	if sp == nil {
		nodeError(w, http.StatusNotFound, "unknown program")
		return
	}
	nodeJSON(w, http.StatusOK, map[string]string{"id": sp.ID, "source": sp.Source})
}

// handleFleetGetInvariants serves an invariant-DB version strictly
// from the LOCAL store — the peer-to-peer read path, guaranteed not to
// re-forward.
func (n *Node) handleFleetGetInvariants(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	version := 0
	if q := r.URL.Query().Get("version"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil {
			nodeError(w, http.StatusBadRequest, "bad version %q", q)
			return
		}
		version = v
	}
	db, v, ok := n.invs.Local().Get(id, version)
	if !ok {
		nodeError(w, http.StatusNotFound, "unknown invariants %q (version %d)", id, version)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Invariants-Version", strconv.Itoa(v))
	db.WriteTo(w) //nolint:errcheck // response already committed
}

func (n *Node) handleFleetInvariantMeta(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	versions := n.invs.Local().Versions(id)
	if versions == 0 {
		nodeError(w, http.StatusNotFound, "unknown invariants %q", id)
		return
	}
	nodeJSON(w, http.StatusOK, map[string]any{
		"id":       id,
		"versions": versions,
		"program":  n.invs.Local().ProgramOf(id),
	})
}

// handleFleetRefine is the leader side of PublishRefined: append an
// adapt-refined database (deduplicated against the latest version).
func (n *Node) handleFleetRefine(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	db, err := invariants.Parse(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		nodeError(w, http.StatusBadRequest, "parse invariants: %v", err)
		return
	}
	v, err := n.invs.publishLocal(id, r.URL.Query().Get("program"), db)
	if errors.Is(err, server.ErrProgramMismatch) {
		nodeError(w, http.StatusConflict, "%v", err)
		return
	}
	if err != nil {
		nodeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	nodeJSON(w, http.StatusOK, map[string]any{"id": id, "version": v})
}

// -------------------------------------------------------- replication

// Replicate pulls every alive peer's log once and replays the records
// this node owns. Exported so tests can drive replication manually.
func (n *Node) Replicate() {
	for _, p := range n.mem.Peers() {
		if p == n.cfg.Self || !n.mem.Alive(p) {
			continue
		}
		n.pullFrom(p)
	}
}

// Poll refreshes peer health once (for tests and cold starts).
func (n *Node) Poll() { n.mem.Poll() }

func (n *Node) cursor(peer string) int64 {
	n.cursorMu.Lock()
	defer n.cursorMu.Unlock()
	return n.cursors[peer]
}

func (n *Node) setCursor(peer string, seq int64) {
	n.cursorMu.Lock()
	defer n.cursorMu.Unlock()
	n.cursors[peer] = seq
}

// pullFrom fetches one peer's log suffix and replays it. The cursor
// only advances past a record once it is applied, skipped as
// duplicate, or skipped as not-owned; a version gap (this record's
// predecessor was led by a different node and has not arrived yet)
// holds the cursor so the record is retried next cycle.
func (n *Node) pullFrom(peer string) {
	from := n.cursor(peer)
	resp, err := n.poll.Get("http://" + peer + "/fleet/log?from=" + strconv.FormatInt(from, 10))
	if err != nil {
		n.mem.MarkDown(peer)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		drainBody(resp)
		return
	}
	var recs []Record
	if err := json.NewDecoder(io.LimitReader(resp.Body, 256<<20)).Decode(&recs); err != nil {
		return
	}
	for _, rec := range recs {
		if !n.invs.owns(rec.ID) {
			from = rec.Seq
			continue
		}
		applied, err := n.invs.ApplyRecord(rec)
		if errors.Is(err, ErrLogGap) {
			break
		}
		if err != nil {
			n.replErrors.Inc()
			from = rec.Seq
			continue
		}
		if applied {
			n.logApplied.Inc()
		} else {
			n.logSkipped.Inc()
		}
		from = rec.Seq
	}
	n.setCursor(peer, from)
}
