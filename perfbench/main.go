// Command perfbench is the repository's end-to-end benchmark. It drives the
// program from outside, through its public packages, on five named
// workloads and prints one JSON result line:
//
//	go run . --workload serve-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it carries the per-layer ledger instead. See README.md for
// what each workload does and which layer metric moves which end-to-end
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the state one workload fills in.
type run struct {
	seed    uint64
	budget  time.Duration
	traced  bool
	workers int

	// End-to-end metrics (untraced runs). Times are process CPU time, user
	// plus system: see README.md for why not wall time.
	setupS    []float64     // CPU seconds of each set-up
	roundCPU  time.Duration // CPU time of the timed phase's rounds
	cpuRounds int
	heapMB    float64
	fails     []string // first few correctness failures, for stderr
	correct   bool
	wallS     []float64 // wall time of each round, for the ledger and stderr

	attempted, failed int64
	rejectedWrites    atomic.Int64 // serve-write deliveries not answered 202

	// Per-layer ledger (traced runs); every name is printed, 0 where the
	// workload does not call the layer. A name with samples and no set
	// value reports their median.
	ledger  map[string]float64
	samples map[string][]float64
}

// ledgerNames are the per-layer metrics of BENCHMARK.json, with units.
var ledgerNames = []struct{ name, unit string }{
	{"gen.generate_s", "s"},
	{"instance.load_world_s", "s"},
	{"simnet.harness_s", "s"},
	{"loadgen.build_plan_s", "s"},
	{"dataset.save_s", "s"},
	{"instance.serve_us.timeline", "us"},
	{"instance.serve_us.instance", "us"},
	{"instance.serve_us.peers", "us"},
	{"instance.serve_us.followers", "us"},
	{"instance.serve_us.inbox", "us"},
	{"instance.not_modified_share", "ratio"},
	{"instance.body_bytes_per_req", "bytes"},
	{"nethttp.stub_sat_rps", "1/s"},
	{"loadgen.sat_rps", "1/s"},
	{"loadgen.p50_ms", "ms"},
	{"loadgen.p99_ms", "ms"},
	{"process.cpu_us_per_req", "us"},
	{"process.sys_share", "ratio"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.allocs_per_req", "count"},
	{"crawler.probe_s", "s"},
	{"crawler.crawl_s", "s"},
	{"crawler.scrape_s", "s"},
	{"simnet.rebuild_s", "s"},
	{"crawler.probe_requests", "count"},
	{"crawler.crawl_requests", "count"},
	{"crawler.scrape_requests", "count"},
	{"crawler.probe_attempts_per_sample", "ratio"},
	{"simnet.transport_us.probe", "us"},
	{"simnet.transport_us.crawl", "us"},
	{"simnet.transport_us.scrape", "us"},
	{"wire.decode_statuses_us", "us"},
	{"crawler.parse_follower_page_us", "us"},
	{"dataset.load_s", "s"},
	{"trace.untraced_wall_s", "s"},
	{"trace.traced_wall_s", "s"},
	{"trace.overhead_share", "ratio"},
}

// experimentIDs lists core.Experiments() ids; each gets a core.exp_s.<id>
// ledger entry. figures checks the list against the program's own index.
var experimentIDs = []string{
	"fig1", "fig2a", "fig2b", "fig2c", "fig3", "fig4", "fig5", "fig6", "fig7",
	"fig8", "fig9a", "fig9b", "tab1", "fig10", "fig11", "tab2", "fig12",
	"fig13a", "fig13b", "fig14", "fig15", "fig16", "ext-blocking",
	"ext-capacity", "ext-dht",
}

var workloads = map[string]func(*run) error{
	"serve-read":  func(r *run) error { return runServe(r, false) },
	"serve-write": func(r *run) error { return runServe(r, true) },
	"campaign":    runCampaign,
	"harvest":     runHarvest,
	"figures":     runFigures,
}

func main() {
	name := flag.String("workload", "", "serve-read | serve-write | campaign | harvest | figures")
	seed := flag.Uint64("seed", 1, "seed of the workload's generated inputs (request plan, deliveries, probed window)")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = print the per-layer ledger instead of the end-to-end metrics")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		os.Exit(2)
	}
	r := &run{
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		workers: runtime.NumCPU(),
		correct: true,
		ledger:  make(map[string]float64),
		samples: make(map[string][]float64),
	}
	if err := fn(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range r.fails {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-ups %.4g CPU s; %d rounds, mean %.4g CPU s, median wall %.4g s\n",
		r.setupS, r.cpuRounds, r.cpuS(), median(r.wallS))

	for name, xs := range r.samples {
		if _, ok := r.ledger[name]; !ok {
			r.ledger[name] = median(xs)
		}
	}
	res := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if r.traced {
		for _, l := range ledgerNames {
			res.Metrics[l.name] = metric{r.ledger[l.name], l.unit}
		}
		for _, id := range experimentIDs {
			res.Metrics["core.exp_s."+id] = metric{r.ledger["core.exp_s."+id], "s"}
		}
	} else {
		res.Metrics["setup_s"] = metric{median(r.setupS), "s"}
		res.Metrics["heap_mb"] = metric{r.heapMB, "MB"}
		res.Metrics["cpu_s"] = metric{r.cpuS(), "s"}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// check records a correctness failure; the run's result says correct=false.
func (r *run) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.correct = false
		if len(r.fails) < 10 {
			r.fails = append(r.fails, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// set records one per-layer value.
func (r *run) set(name string, v float64) { r.ledger[name] = v }

// sample adds one observation of a per-layer value.
func (r *run) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// worldSeed is the generator seed of every workload's world. The world is
// fixed so that each run does the same amount of work; --seed drives the
// workload's own random choices (the request plan and deliveries, the
// probed window).
const worldSeed = 1

// setupRounds is how many times each workload builds its set-up; setup_s is
// the median, and only the last set-up is kept for the timed phase.
const setupRounds = 3

// timeSetup runs build setupRounds times, keeping the last result, and
// records each one's CPU time. Each earlier result is released with drop and
// collected before the next build, so set-ups never overlap in memory.
func timeSetup[T any](r *run, build func() (T, error), drop func(T)) (T, error) {
	var v T
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		start := cpuTime()
		var err error
		if v, err = build(); err != nil {
			return v, err
		}
		r.setupS = append(r.setupS, (cpuTime() - start).Seconds())
		if i < setupRounds-1 && drop != nil {
			drop(v)
		}
	}
	return v, nil
}

// round records one round of the timed phase: its CPU time and wall time.
func (r *run) round(cpu, wall time.Duration) {
	r.roundCPU += cpu
	r.cpuRounds++
	r.wallS = append(r.wallS, wall.Seconds())
}

// cpuS is the mean CPU time of a round of the timed phase, in seconds.
func (r *run) cpuS() float64 {
	if r.cpuRounds == 0 {
		return 0
	}
	return r.roundCPU.Seconds() / float64(r.cpuRounds)
}

// heapAfterGC is the live heap in MB after a forced collection.
func heapAfterGC() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
