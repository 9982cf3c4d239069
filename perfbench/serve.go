package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/dataset"
	"repro/internal/instance"
	"repro/internal/loadgen"
	"repro/internal/stats"
)

// The serve workloads load the tiny world into live servers behind one
// loopback listener and drive them with loadgen's Zipf plan over nproc
// keep-alive connections. The untraced timed phase is saturation batches: a
// fixed request count offered all at once, whose CPU time is cpu_s. The
// traced run adds fixed-rate chunks well below saturation, for latency
// from each request's scheduled arrival.
const (
	serveScale  = core.ScaleTiny
	satBatch    = 16384                  // requests per saturation batch
	offeredRate = 5000.0                 // req/s of the traced fixed-rate quarter
	rateChunk   = 1 * time.Second        // length of one fixed-rate plan
	pageLimit   = 20                     // statuses per timeline page, loadgen's default
	pageShare   = 0.6                    // timeline pages' share of planned reads, loadgen's default
	replayEvery = 40                     // sampled replay: every 40th request of the batch
	writerHost  = "writer.example"       // sender domain of benchmark deliveries
	inboxPrefix = "/inbox?note="         // planned delivery, rewritten to a POST
	noteTime    = "2019-01-01T00:00:00Z" // created_at of every benchmark note
)

// serveSetup is one built serving stack.
type serveSetup struct {
	world    *dataset.World
	net      *instance.Network
	satPlan  []loadgen.Request
	ratePlan []loadgen.Request
	// Expected non-2xx/304 responses per pass over each plan.
	satRefusals, rateRefusals int
	blocks                    map[string]bool // domain → refuses timeline crawls
	share                     float64         // serve-write: deliveries over requests
	srv                       *server
	cfg                       loadgen.RunConfig // the client for srv
}

// server is one loopback listener with its http.Server.
type server struct {
	base string
	srv  *http.Server
	done chan struct{}
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		base: "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed on Close
	}()
	return s, nil
}

// stop closes the listener and every connection and waits for Serve to end.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.srv.Close()
	<-s.done
}

func buildServe(r *run, write bool) (*serveSetup, error) {
	ctx := context.Background()
	t := time.Now()
	w, err := core.BuildWorld(serveScale, worldSeed)
	if err != nil {
		return nil, err
	}
	r.sample("gen.generate_s", time.Since(t).Seconds())

	t = time.Now()
	n, err := instance.LoadWorld(ctx, w, instance.LoadOptions{})
	if err != nil {
		return nil, fmt.Errorf("load world: %w", err)
	}
	r.sample("instance.load_world_s", time.Since(t).Seconds())

	t = time.Now()
	sat, err := loadgen.BuildPlan(w, loadgen.Config{Seed: r.seed, Rate: 1e9, Count: satBatch})
	if err != nil {
		return nil, err
	}
	rate, err := loadgen.BuildPlan(w, loadgen.Config{Seed: r.seed + 1, Rate: offeredRate, Duration: rateChunk})
	if err != nil {
		return nil, err
	}
	var share float64
	if write {
		var inbound []float64
		share, inbound = deliveryShare(w)
		rng := rand.New(rand.NewSource(int64(r.seed) + 2))
		addWrites(w, sat, share, inbound, rng)
		addWrites(w, rate, share, inbound, rng)
	}
	r.sample("loadgen.build_plan_s", time.Since(t).Seconds())

	blocks := make(map[string]bool, len(w.Instances))
	for i := range w.Instances {
		blocks[w.Instances[i].Domain] = w.Instances[i].BlocksCrawl
	}
	s := &serveSetup{
		world:        w,
		net:          n,
		satPlan:      sat,
		ratePlan:     rate,
		satRefusals:  expectedRefusals(blocks, sat),
		rateRefusals: expectedRefusals(blocks, rate),
		blocks:       blocks,
		share:        share,
	}
	if s.srv, err = startServer(n); err != nil {
		return nil, err
	}
	s.cfg = r.loadConfig(s.srv.base, write)
	// Warm the page caches with one pass of the saturation batch.
	if _, err := loadgen.Run(ctx, sat, s.cfg); err != nil {
		s.srv.stop()
		return nil, err
	}
	return s, nil
}

// deliveryShare derives serve-write's traffic from the world. A toot is
// delivered once to every other instance that hosts a follower of its
// author (one shared-inbox Create per instance). The reads are those at
// which every local user of an instance reads every status entering its
// federated timeline (its local toots and its deliveries) once, pageLimit
// to a page, with timeline pages pageShare of all reads. Both sides scale
// with the toot rate, so the share holds over any duration. It returns the
// share of requests that are deliveries and each instance's deliveries.
func deliveryShare(w *dataset.World) (share float64, inbound []float64) {
	g := w.SocialCSR()
	n := len(w.Instances)
	inbound = make([]float64, n)
	local := make([]float64, n)
	users := make([]float64, n)
	last := make([]int32, n) // last author delivered to each instance
	for i := range last {
		last[i] = -1
	}
	var writes float64
	for a := range w.Users {
		u := &w.Users[a]
		users[u.Instance]++
		local[u.Instance] += float64(u.Toots)
		for _, f := range g.In(int32(a)) {
			if in := w.Users[f].Instance; in != u.Instance && last[in] != int32(a) {
				last[in] = int32(a)
				inbound[in] += float64(u.Toots)
				writes += float64(u.Toots)
			}
		}
	}
	var pages float64
	for i := range users {
		pages += users[i] * (local[i] + inbound[i]) / pageLimit
	}
	return writes / (writes + pages/pageShare), inbound
}

// addWrites turns share of the planned reads, spread evenly through the
// plan, into inbox deliveries, each to an instance drawn in proportion to
// the deliveries it receives; writeClient rewrites them into POSTs.
func addWrites(w *dataset.World, plan []loadgen.Request, share float64, inbound []float64, rng *rand.Rand) {
	cum := make([]float64, len(inbound))
	total := 0.0
	for i, x := range inbound {
		total += x
		cum[i] = total
	}
	for i := range plan {
		if int(float64(i+1)*share) == int(float64(i)*share) {
			continue
		}
		x := rng.Float64() * total
		k := sort.Search(len(cum), func(j int) bool { return cum[j] > x })
		plan[i].Domain = w.Instances[k].Domain
		plan[i].Path = inboxPrefix + strconv.Itoa(i)
	}
}

// expectedRefusals is the refusal oracle: a planned request is refused
// exactly when it reads the public timeline of an instance that blocks
// crawling (403). It is computed from the plan and the world's BlocksCrawl
// flags alone, apart from the server.
func expectedRefusals(blocks map[string]bool, plan []loadgen.Request) int {
	n := 0
	for i := range plan {
		if blocks[plan[i].Domain] && strings.HasPrefix(plan[i].Path, "/api/v1/timelines/public") {
			n++
		}
	}
	return n
}

// loadConfig is the loadgen configuration every batch against one server
// shares: nproc pooled keep-alive connections and, for serve-write, the
// delivery rewrite.
func (r *run) loadConfig(base string, write bool) loadgen.RunConfig {
	var rt http.RoundTripper = crawler.PooledTransport(r.workers)
	if write {
		rt = &writeClient{inner: rt, seed: r.seed, rejected: &r.rejectedWrites}
	}
	return loadgen.RunConfig{Target: base, Workers: r.workers, HTTP: &http.Client{Transport: rt}}
}

// writeClient is serve-write's client transport: a planned GET of
// inboxPrefix+k becomes a federation Create delivery POSTed to /inbox of the
// planned domain. Every other request passes through untouched.
type writeClient struct {
	inner    http.RoundTripper
	seed     uint64
	rejected *atomic.Int64 // deliveries not answered 202
}

func (c *writeClient) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/inbox" {
		return c.inner.RoundTrip(req)
	}
	k, _ := strconv.Atoi(req.URL.Query().Get("note"))
	body := noteActivity(fmt.Sprintf("%d-%d", c.seed, k))
	post, err := http.NewRequestWithContext(req.Context(), http.MethodPost, req.URL.Scheme+"://"+req.URL.Host+"/inbox", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	post.Host = req.Host
	post.Header.Set("Content-Type", "application/activity+json")
	resp, err := c.inner.RoundTrip(post)
	if err == nil && resp.StatusCode != http.StatusAccepted {
		c.rejected.Add(1)
	}
	return resp, err
}

// benchNote / benchActivity are the delivery shape, encoded with
// encoding/json apart from the program's codec.
type benchActor struct {
	User   string `json:"user"`
	Domain string `json:"domain"`
}

type benchNote struct {
	ID        string     `json:"id"`
	Author    benchActor `json:"author"`
	Content   string     `json:"content"`
	CreatedAt string     `json:"created_at"`
}

type benchActivity struct {
	Type string     `json:"type"`
	From benchActor `json:"from"`
	Note benchNote  `json:"note"`
}

func noteContent(id string) string { return "benchmark note " + id }

func noteActivity(id string) []byte {
	from := benchActor{User: "writer", Domain: writerHost}
	b, _ := json.Marshal(benchActivity{ // plain strings: cannot fail
		Type: "Create",
		From: from,
		Note: benchNote{ID: "https://" + writerHost + "/notes/" + id, Author: from, Content: noteContent(id), CreatedAt: noteTime},
	})
	return b
}

// batch runs one whole pass over plan and accounts for it against the
// refusal oracle: every non-2xx/304 response beyond the expected refusals,
// and every transport error, is a failed operation.
func (r *run) batch(plan []loadgen.Request, cfg loadgen.RunConfig, refusals int) (*loadgen.Report, error) {
	rep, err := loadgen.Run(context.Background(), plan, cfg)
	if err != nil {
		return nil, err
	}
	r.attempted += int64(rep.Requests)
	bad := int64(rep.Errors)
	if d := rep.StatusOther - refusals; d != 0 {
		bad += int64(abs(d))
	}
	if rep.Requests != len(plan) {
		bad += int64(len(plan) - rep.Requests)
	}
	r.failed += bad
	r.check(bad == 0, "batch: %d requests, %d errors, %d non-2xx/304 (oracle %d)",
		rep.Requests, rep.Errors, rep.StatusOther, refusals)
	return rep, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func runServe(r *run, write bool) error {
	s, err := timeSetup(r, func() (*serveSetup, error) { return buildServe(r, write) },
		func(s *serveSetup) { s.srv.stop() })
	if err != nil {
		return err
	}
	defer func() { s.srv.stop() }()
	if write {
		fmt.Fprintf(os.Stderr, "serve-write: deliveries are %.4f of requests\n", s.share)
	}

	if r.traced {
		if err := serveTraced(r, s, write); err != nil {
			return err
		}
	} else {
		err := rounds(r.budget, func() error {
			c := cpuTime()
			rep, err := r.batch(s.satPlan, s.cfg, s.satRefusals)
			if err != nil {
				return err
			}
			r.round(cpuTime()-c, time.Duration(rep.DurationSec*float64(time.Second)))
			return nil
		})
		if err != nil {
			return err
		}
		r.heapMB = heapAfterGC()
	}

	r.check(r.rejectedWrites.Load() == 0, "%d inbox deliveries not answered 202", r.rejectedWrites.Load())
	r.failed += r.rejectedWrites.Load()
	replayCheck(r, s)
	if write {
		writeCheck(r, s)
	}
	return nil
}

// ratePhase replays the fixed-rate plan back to back for d and merges the
// latency histograms.
func (r *run) ratePhase(s *serveSetup, d time.Duration) (*stats.LatencyHistogram, error) {
	hist := &stats.LatencyHistogram{}
	err := rounds(d, func() error {
		rep, err := r.batch(s.ratePlan, s.cfg, s.rateRefusals)
		if err != nil {
			return err
		}
		hist.Merge(rep.Hist)
		return nil
	})
	return hist, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serveTraced is the traced run: untraced saturation batches (the reference
// wall and the process/runtime counters), the same batches against a
// server whose handler is wrapped in per-endpoint timers, the stub-handler
// ceiling, and a fixed-rate quarter for p99.
func serveTraced(r *run, s *serveSetup, write bool) error {
	quarter := r.budget / 4

	var walls, rps []float64
	var reqs int64
	p0 := snapProc()
	err := rounds(quarter, func() error {
		rep, err := r.batch(s.satPlan, s.cfg, s.satRefusals)
		if err != nil {
			return err
		}
		walls = append(walls, rep.DurationSec)
		rps = append(rps, float64(rep.Requests)/rep.DurationSec)
		reqs += int64(rep.Requests)
		return nil
	})
	if err != nil {
		return err
	}
	r.recordProc(p0, snapProc(), reqs)
	r.set("trace.untraced_wall_s", median(walls))
	r.set("loadgen.sat_rps", median(rps))

	th := &timedHandler{next: s.net}
	ts, err := startServer(th)
	if err != nil {
		return err
	}
	var twalls []float64
	tcfg := r.loadConfig(ts.base, write)
	err = rounds(quarter, func() error {
		rep, err := r.batch(s.satPlan, tcfg, s.satRefusals)
		if err != nil {
			return err
		}
		twalls = append(twalls, rep.DurationSec)
		return nil
	})
	ts.stop()
	if err != nil {
		return err
	}
	r.set("trace.traced_wall_s", median(twalls))
	r.set("trace.overhead_share", median(twalls)/median(walls)-1)
	th.report(r)

	// Stub ceiling: same plan, client and connection count against a
	// handler that accepts every delivery and answers every read with one
	// fixed body as large as the instance layer's mean response.
	body := bytes.Repeat([]byte("x"), int(r.ledger["instance.body_bytes_per_req"]+0.5))
	stub, err := startServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(body)
	}))
	if err != nil {
		return err
	}
	var stubRPS []float64
	scfg := r.loadConfig(stub.base, write)
	err = rounds(quarter, func() error {
		rep, err := loadgen.Run(context.Background(), s.satPlan, scfg)
		if err != nil {
			return err
		}
		stubRPS = append(stubRPS, float64(rep.Requests)/rep.DurationSec)
		return nil
	})
	stub.stop()
	if err != nil {
		return err
	}
	r.set("nethttp.stub_sat_rps", median(stubRPS))

	hist, err := r.ratePhase(s, quarter)
	if err != nil {
		return err
	}
	r.set("loadgen.p50_ms", ms(hist.Quantile(0.5)))
	r.set("loadgen.p99_ms", ms(hist.Quantile(0.99)))
	return nil
}

// timedHandler wraps instance.Network and keeps, per endpoint class, the
// handler time and request count, plus 304s over GETs and body bytes.
type timedHandler struct {
	next                    http.Handler
	ns, n                   [5]atomic.Int64
	gets, notModified, body atomic.Int64
}

var endpointClasses = [5]string{"timeline", "instance", "peers", "followers", "inbox"}

func endpointClass(path string) int {
	switch {
	case path == "/api/v1/timelines/public":
		return 0
	case path == "/api/v1/instance":
		return 1
	case path == "/api/v1/instance/peers":
		return 2
	case path == "/inbox":
		return 4
	default:
		return 3
	}
}

type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	c := endpointClass(req.URL.Path)
	t := time.Now()
	h.next.ServeHTTP(cw, req)
	h.ns[c].Add(int64(time.Since(t)))
	h.n[c].Add(1)
	h.body.Add(cw.bytes)
	if req.Method == http.MethodGet {
		h.gets.Add(1)
		if cw.status == http.StatusNotModified {
			h.notModified.Add(1)
		}
	}
}

func (h *timedHandler) report(r *run) {
	var total int64
	for c, name := range endpointClasses {
		n := h.n[c].Load()
		total += n
		if n > 0 {
			r.set("instance.serve_us."+name, float64(h.ns[c].Load())/float64(n)/1e3)
		}
	}
	if g := h.gets.Load(); g > 0 {
		r.set("instance.not_modified_share", float64(h.notModified.Load())/float64(g))
	}
	if total > 0 {
		r.set("instance.body_bytes_per_req", float64(h.body.Load())/float64(total))
	}
}

// Shapes the replay decodes with encoding/json, apart from internal/wire.
type replayStatus struct {
	ID      string `json:"id"`
	Account struct {
		Acct string `json:"acct"`
	} `json:"account"`
	Content string `json:"content"`
}

type replayInstance struct {
	URI   string `json:"uri"`
	Stats struct {
		UserCount int `json:"user_count"`
	} `json:"stats"`
}

// replayCheck re-sends a sample of the saturation plan one request at a
// time and holds every response to page properties computed from the
// world and the request alone.
func replayCheck(r *run, s *serveSetup) {
	users := make(map[string]int, len(s.world.Instances))
	for i := range s.world.Users {
		users[s.world.Instances[s.world.Users[i].Instance].Domain]++
	}
	cli := &http.Client{Transport: crawler.PooledTransport(1)}
	defer cli.CloseIdleConnections()
	for i := 0; i < len(s.satPlan); i += replayEvery {
		pr := s.satPlan[i]
		if strings.HasPrefix(pr.Path, inboxPrefix) {
			continue
		}
		code, etag, body, err := get(cli, s.srv.base, pr.Domain, pr.Path, "")
		if !r.check(err == nil, "replay %s%s: %v", pr.Domain, pr.Path, err) {
			continue
		}
		r.check(code != http.StatusNotModified, "replay %s%s: 304 without If-None-Match", pr.Domain, pr.Path)
		u, _ := splitPath(pr.Path)
		switch {
		case u == "/api/v1/timelines/public" && s.blocks[pr.Domain]:
			r.check(code == http.StatusForbidden, "replay %s%s: crawl-blocking instance answered %d", pr.Domain, pr.Path, code)
			continue
		case !r.check(code == http.StatusOK, "replay %s%s: status %d", pr.Domain, pr.Path, code):
			continue
		case u == "/api/v1/timelines/public":
			checkTimeline(r, pr.Domain, pr.Path, body)
		case u == "/api/v1/instance":
			var info replayInstance
			err := json.Unmarshal(body, &info)
			r.check(err == nil && info.URI == pr.Domain && info.Stats.UserCount == users[pr.Domain],
				"replay %s%s: uri %q users %d, want %q %d (%v)", pr.Domain, pr.Path, info.URI, info.Stats.UserCount, pr.Domain, users[pr.Domain], err)
		case u == "/api/v1/instance/peers":
			var peers []string
			r.check(json.Unmarshal(body, &peers) == nil, "replay %s%s: peers are not a JSON string list", pr.Domain, pr.Path)
		}
		// Revalidation: a tag issued by this response answers 304 while no
		// write intervenes; a request without the header never does.
		if etag != "" {
			code2, _, _, err := get(cli, s.srv.base, pr.Domain, pr.Path, etag)
			r.check(err == nil && code2 == http.StatusNotModified, "replay %s%s: revalidation got %d (%v)", pr.Domain, pr.Path, code2, err)
		}
	}
}

// splitPath splits a planned path into its path and query.
func splitPath(p string) (path, query string) {
	if i := strings.IndexByte(p, '?'); i >= 0 {
		return p[:i], p[i+1:]
	}
	return p, ""
}

func checkTimeline(r *run, domain, p string, body []byte) {
	var page []replayStatus
	if !r.check(json.Unmarshal(body, &page) == nil, "replay %s%s: timeline is not a JSON status list", domain, p) {
		return
	}
	_, query := splitPath(p)
	limit, maxID, local := 20, int64(0), false
	for _, kv := range strings.Split(query, "&") {
		k, v, _ := strings.Cut(kv, "=")
		switch k {
		case "limit":
			limit, _ = strconv.Atoi(v)
		case "max_id":
			maxID, _ = strconv.ParseInt(v, 10, 64)
		case "local":
			local = v == "true"
		}
	}
	r.check(len(page) <= limit, "replay %s%s: %d statuses over limit %d", domain, p, len(page), limit)
	prev := int64(-1)
	for _, st := range page {
		id, err := strconv.ParseInt(st.ID, 10, 64)
		r.check(err == nil && (maxID == 0 || id < maxID) && (prev < 0 || id < prev),
			"replay %s%s: id %q out of order (prev %d, max_id %d)", domain, p, st.ID, prev, maxID)
		prev = id
		if local {
			r.check(strings.HasSuffix(st.Account.Acct, "@"+domain), "replay %s%s: local page carries %q", domain, p, st.Account.Acct)
		}
	}
}

// writeCheck delivers one more note to every domain the plans wrote to and
// then revalidates with a tag issued before that write: the answer must be
// a full 200 whose federated head is the new note (timeline-refusing
// instances are checked on their instance document instead).
func writeCheck(r *run, s *serveSetup) {
	cli := &http.Client{Transport: crawler.PooledTransport(1)}
	defer cli.CloseIdleConnections()
	seen := map[string]bool{}
	for _, pr := range s.satPlan {
		if !strings.HasPrefix(pr.Path, inboxPrefix) || seen[pr.Domain] {
			continue
		}
		seen[pr.Domain] = true
		path := "/api/v1/timelines/public?limit=20"
		if s.blocks[pr.Domain] {
			path = "/api/v1/instance"
		}
		_, etag, _, err := get(cli, s.srv.base, pr.Domain, path, "")
		if !r.check(err == nil && etag != "", "write check %s: no tag before the write (%v)", pr.Domain, err) {
			continue
		}
		id := fmt.Sprintf("final-%d-%s", r.seed, pr.Domain)
		req, _ := http.NewRequest(http.MethodPost, s.srv.base+"/inbox", bytes.NewReader(noteActivity(id)))
		req.Host = pr.Domain
		resp, err := cli.Do(req)
		if !r.check(err == nil, "write check %s: %v", pr.Domain, err) {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		r.check(resp.StatusCode == http.StatusAccepted, "write check %s: delivery got %d", pr.Domain, resp.StatusCode)
		code, _, body, err := get(cli, s.srv.base, pr.Domain, path, etag)
		if !r.check(err == nil && code == http.StatusOK, "write check %s: revalidation after a write got %d (%v)", pr.Domain, code, err) {
			continue
		}
		if !s.blocks[pr.Domain] {
			var page []replayStatus
			err := json.Unmarshal(body, &page)
			r.check(err == nil && len(page) > 0 && page[0].Content == noteContent(id),
				"write check %s: federated head is not the last delivered note", pr.Domain)
		}
	}
	r.check(len(seen) > 0, "serve-write plan holds no deliveries")
}

// get issues one GET with an optional If-None-Match and reads the body.
func get(cli *http.Client, base, domain, path, inm string) (code int, etag string, body []byte, err error) {
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		return 0, "", nil, err
	}
	req.Host = domain
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := cli.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Etag"), body, err
}
