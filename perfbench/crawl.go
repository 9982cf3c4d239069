package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/dataset"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// The campaign and harvest workloads run the §3 pipeline against a simnet
// harness over the tiny world, whose one-day round is short enough for a
// run to hold ~15 of them (README.md, Workloads). The
// probed window starts on day 100 of the world's 120, when most of its
// instances exist: earlier windows are dominated by retried 503s from
// instances not yet born. The window is fixed so every run does the same
// work; the seed only orders harvest's crawl and scrape.
const (
	crawlScale  = core.ScaleTiny
	windowStart = 100 * dataset.SlotsPerDay
	captureCap  = 256 // response bodies kept per class in a traced run
)

// Request classes seen by the harness client.
const (
	classProbe = iota
	classCrawl
	classScrape
)

var classNames = [3]string{"probe", "crawl", "scrape"}

func requestClass(path string) int {
	switch {
	case strings.HasPrefix(path, "/api/v1/timelines/"):
		return classCrawl
	case strings.HasPrefix(path, "/users/"):
		return classScrape
	default:
		return classProbe
	}
}

// meteredRT wraps the harness's transport. Untraced, it only counts
// attempts (the operations of the process ledger). Traced, it also keeps per-class attempts,
// time inside the transport, the first attempt's start (the phase
// boundaries of RunCampaign) and a capped sample of response bodies for
// the decode costs. Everything is atomics; nothing is locked per request.
type meteredRT struct {
	inner    http.RoundTripper
	attempts atomic.Int64
	traced   bool
	n, ns    [3]atomic.Int64
	first    [3]atomic.Int64 // unix ns of the class's first attempt
	kept     [3]atomic.Int64
	bodies   [3][captureCap]capturedBody
}

type capturedBody struct {
	acct string // scrape pages: the account whose followers are listed
	body []byte
}

func (m *meteredRT) RoundTrip(req *http.Request) (*http.Response, error) {
	m.attempts.Add(1)
	if !m.traced {
		return m.inner.RoundTrip(req)
	}
	c := requestClass(req.URL.Path)
	t := time.Now()
	if m.first[c].Load() == 0 {
		m.first[c].CompareAndSwap(0, t.UnixNano())
	}
	resp, err := m.inner.RoundTrip(req)
	m.ns[c].Add(int64(time.Since(t)))
	m.n[c].Add(1)
	if err == nil && resp.StatusCode == http.StatusOK && c != classProbe {
		if k := m.kept[c].Add(1) - 1; k < captureCap {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			resp.Body = io.NopCloser(bytes.NewReader(body))
			if rerr == nil {
				user := strings.TrimSuffix(strings.TrimPrefix(req.URL.Path, "/users/"), "/followers")
				m.bodies[c][k] = capturedBody{acct: user + "@" + req.Host, body: body}
			}
		}
	}
	return resp, err
}

// reset clears the per-class tallies before a traced round.
func (m *meteredRT) reset() {
	m.attempts.Store(0)
	for c := range m.n {
		m.n[c].Store(0)
		m.ns[c].Store(0)
		m.first[c].Store(0)
	}
}

// crawlSetup is one built harness with its world.
type crawlSetup struct {
	world *dataset.World
	h     *simnet.Harness
	rt    *meteredRT
	// The one-slot warm-up campaign; harvest's passes reuse its probe log.
	base *simnet.CampaignResult
}

func buildCrawl(r *run) (*crawlSetup, error) {
	ctx := context.Background()
	t := time.Now()
	w, err := core.BuildWorld(crawlScale, worldSeed)
	if err != nil {
		return nil, err
	}
	r.sample("gen.generate_s", time.Since(t).Seconds())
	t = time.Now()
	h, err := simnet.New(ctx, w, simnet.Options{})
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	r.sample("simnet.harness_s", time.Since(t).Seconds())
	rt := &meteredRT{inner: h.Client.HTTP.Transport}
	h.Client.HTTP = &http.Client{Transport: rt}
	s := &crawlSetup{world: w, h: h, rt: rt}
	// One probe slot warms the servers' page caches and the client with a
	// first crawl and scrape, so the first timed round is not a cold one.
	if s.base, err = h.RunCampaign(ctx, r.campaignConfig(1)); err != nil {
		return nil, err
	}
	// Harvest's passes replace the harvest; only the probe log is kept.
	s.base.Crawls, s.base.Authors, s.base.Scrape = nil, nil, crawler.ScrapeResult{}
	return s, nil
}

func (r *run) campaignConfig(slots int) simnet.CampaignConfig {
	return simnet.CampaignConfig{
		StartSlot:     windowStart,
		Slots:         slots,
		ProbeWorkers:  r.workers,
		CrawlWorkers:  r.workers,
		ScrapeWorkers: r.workers,
	}
}

// rounds runs fn at least once and then again while one more round of the
// last round's length still fits in d.
func rounds(d time.Duration, fn func() error) error {
	start := time.Now()
	for {
		t := time.Now()
		if err := fn(); err != nil {
			return err
		}
		if time.Since(start)+time.Since(t) > d {
			return nil
		}
	}
}

// expectedBytes is the saved form of the world a flawless campaign over
// the window must recover.
func expectedBytes(w *dataset.World, start, slots int) ([]byte, error) {
	exp, _ := simnet.ExpectedWorld(w, simnet.ExpectedConfig{StartSlot: start, Slots: slots})
	var buf bytes.Buffer
	if err := exp.Save(&buf); err != nil {
		return nil, fmt.Errorf("save expected world: %w", err)
	}
	return buf.Bytes(), nil
}

// checkRebuilt holds a rebuilt world to the expected one, byte for byte in
// its saved form (instances, users, traces and both graphs).
func checkRebuilt(r *run, what string, rebuilt *dataset.World, want []byte) bool {
	var buf bytes.Buffer
	if err := rebuilt.Save(&buf); err != nil {
		return r.check(false, "%s: save rebuilt world: %v", what, err)
	}
	return r.check(bytes.Equal(buf.Bytes(), want), "%s: rebuilt world differs from simnet.ExpectedWorld", what)
}

// checkTraces holds the probed traces to the world's ground truth, bit for
// bit over the window.
func checkTraces(r *run, w *dataset.World, res *simnet.CampaignResult) bool {
	if !r.check(res.Traces.Len() == len(w.Instances), "campaign: %d traces for %d instances", res.Traces.Len(), len(w.Instances)) {
		return false
	}
	for i := range w.Instances {
		for s := 0; s < res.Traces.Slots(); s++ {
			if res.Traces.Traces[i].IsDown(s) != w.Traces.Traces[i].IsDown(res.StartSlot+s) {
				return r.check(false, "campaign: %s slot %d differs from ground truth", w.Instances[i].Domain, s)
			}
		}
	}
	return true
}

func runCampaign(r *run) error {
	ctx := context.Background()
	s, err := timeSetup(r, func() (*crawlSetup, error) { return buildCrawl(r) }, nil)
	if err != nil {
		return err
	}
	cfg := r.campaignConfig(dataset.SlotsPerDay)
	want, err := expectedBytes(s.world, cfg.StartSlot, cfg.Slots)
	if err != nil {
		return err
	}
	var reqs int64
	// round runs one campaign plus rebuild and checks it outside the timing.
	round := func() error {
		s.rt.reset()
		t, c := time.Now(), cpuTime()
		res, err := s.h.RunCampaign(ctx, cfg)
		if err != nil {
			return err
		}
		tc := time.Since(t)
		t = time.Now()
		rebuilt, _ := simnet.Rebuild(res)
		tr := time.Since(t)
		r.round(cpuTime()-c, tc+tr)
		reqs += s.rt.attempts.Load()
		r.attempted++
		if !(checkTraces(r, s.world, res) && checkRebuilt(r, "campaign", rebuilt, want)) {
			r.failed++
		}
		if s.rt.traced {
			r.campaignLedger(s, t.Add(-tc), t, tr, cfg.Slots)
		}
		return nil
	}
	if err := r.crawlRounds(s, round, &reqs); err != nil {
		return err
	}
	if !r.traced {
		r.heapMB = heapAfterGC()
		runtime.KeepAlive(s) // the live harness is the heap being measured
	}
	return nil
}

// crawlRounds runs the timed phase of campaign and harvest. Untraced, it
// runs rounds for the whole budget. Traced, it runs untraced rounds for
// half (the reference wall and the process counters), then traced rounds
// for the other half, then re-decodes the captured bodies.
func (r *run) crawlRounds(s *crawlSetup, round func() error, reqs *int64) error {
	if !r.traced {
		return rounds(r.budget, round)
	}
	p0 := snapProc()
	if err := rounds(r.budget/2, round); err != nil {
		return err
	}
	r.recordProc(p0, snapProc(), *reqs)
	untraced := median(r.wallS)
	r.wallS = nil
	s.rt.traced = true
	if err := rounds(r.budget/2, round); err != nil {
		return err
	}
	r.set("trace.untraced_wall_s", untraced)
	r.set("trace.traced_wall_s", median(r.wallS))
	r.set("trace.overhead_share", median(r.wallS)/untraced-1)
	r.decodeLedger(s.rt)
	return nil
}

// campaignLedger reads one traced campaign round: RunCampaign runs its
// phases in order, so each phase spans from its first attempt to the next
// phase's first attempt.
func (r *run) campaignLedger(s *crawlSetup, start, end time.Time, rebuild time.Duration, slots int) {
	m := s.rt
	crawl, scrape := m.first[classCrawl].Load(), m.first[classScrape].Load()
	if crawl == 0 || scrape == 0 {
		r.check(false, "campaign: traced round saw no crawl or scrape attempt")
		return
	}
	r.sample("crawler.probe_s", time.Duration(crawl-start.UnixNano()).Seconds())
	r.sample("crawler.crawl_s", time.Duration(scrape-crawl).Seconds())
	r.sample("crawler.scrape_s", time.Duration(end.UnixNano()-scrape).Seconds())
	r.sample("simnet.rebuild_s", rebuild.Seconds())
	r.transportLedger(m)
	r.sample("crawler.probe_attempts_per_sample", float64(m.n[classProbe].Load())/float64(slots*len(s.world.Instances)))
}

// transportLedger records per-class attempts and mean transport time.
func (r *run) transportLedger(m *meteredRT) {
	for c, name := range classNames {
		n := m.n[c].Load()
		r.sample("crawler."+name+"_requests", float64(n))
		if n > 0 {
			r.sample("simnet.transport_us."+name, float64(m.ns[c].Load())/float64(n)/1e3)
		}
	}
}

// decodeLedger re-decodes the captured bodies with the crawler's own
// decoders: the per-page cost of wire.DecodeStatuses and of the follower
// page parser.
func (r *run) decodeLedger(m *meteredRT) {
	pages := func(c int) []capturedBody {
		n := m.kept[c].Load()
		if n > captureCap {
			n = captureCap
		}
		var out []capturedBody
		for _, b := range m.bodies[c][:n] {
			if b.body != nil {
				out = append(out, b)
			}
		}
		return out
	}
	perPage := func(bodies []capturedBody, fn func(capturedBody)) float64 {
		if len(bodies) == 0 {
			return 0
		}
		var n int
		t := time.Now()
		for time.Since(t) < 200*time.Millisecond {
			for _, b := range bodies {
				fn(b)
			}
			n += len(bodies)
		}
		return float64(time.Since(t)) / float64(n) / 1e3
	}
	var dst []wire.Status
	r.set("wire.decode_statuses_us", perPage(pages(classCrawl), func(b capturedBody) {
		var err error
		dst, err = wire.DecodeStatuses(b.body, dst[:0])
		r.check(err == nil, "captured timeline page does not decode: %v", err)
	}))
	r.set("crawler.parse_follower_page_us", perPage(pages(classScrape), func(b capturedBody) {
		crawler.ParseFollowerPage(b.acct, b.body)
	}))
}

func runHarvest(r *run) error {
	ctx := context.Background()
	s, err := timeSetup(r, func() (*crawlSetup, error) { return buildCrawl(r) }, nil)
	if err != nil {
		return err
	}
	want, err := expectedBytes(s.world, windowStart, 1)
	if err != nil {
		return err
	}
	// The seed fixes the order in which instances are crawled and authors
	// scraped; results are put back in world order before the rebuild.
	rng := rand.New(rand.NewSource(int64(r.seed)))
	order := rng.Perm(len(s.base.Domains))
	domains := make([]string, len(order))
	for i, k := range order {
		domains[i] = s.base.Domains[k]
	}
	var reqs int64
	pass := func() error {
		s.rt.reset()
		t, c := time.Now(), cpuTime()
		got := (&crawler.TootCrawler{Client: s.h.Client, Workers: r.workers, Local: true}).Crawl(ctx, domains)
		crawls := make([]crawler.InstanceCrawl, len(got))
		for i, k := range order {
			crawls[k] = got[i]
		}
		tCrawl := time.Since(t)
		authors := crawler.Authors(crawls)
		shuffled := append([]string(nil), authors...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		t2 := time.Now()
		scrape := (&crawler.FollowerScraper{Client: s.h.Client, Workers: r.workers}).Scrape(ctx, shuffled)
		tScrape := time.Since(t2)
		res := *s.base
		res.Crawls, res.Authors, res.Scrape = crawls, authors, scrape
		t3 := time.Now()
		rebuilt, _ := simnet.Rebuild(&res)
		tRebuild := time.Since(t3)
		r.round(cpuTime()-c, time.Since(t))
		reqs += s.rt.attempts.Load()
		r.attempted++
		ok := r.check(len(scrape.Errors) == 0, "harvest: %d scrape errors", len(scrape.Errors))
		if !(checkRebuilt(r, "harvest", rebuilt, want) && ok) {
			r.failed++
		}
		if s.rt.traced {
			r.sample("crawler.crawl_s", tCrawl.Seconds())
			r.sample("crawler.scrape_s", tScrape.Seconds())
			r.sample("simnet.rebuild_s", tRebuild.Seconds())
			r.transportLedger(s.rt)
		}
		return nil
	}

	if err := r.crawlRounds(s, pass, &reqs); err != nil {
		return err
	}
	if !r.traced {
		r.heapMB = heapAfterGC()
		runtime.KeepAlive(s) // the live harness is the heap being measured
	}
	return nil
}
