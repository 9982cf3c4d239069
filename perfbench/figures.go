package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
)

// The figures workload is the `fedibench -world` path: dataset.LoadFile of
// a saved small world, then core.RunAll over it. Set-up generates and saves
// the world into a temporary directory under .bench_build/.
const figuresScale = core.ScaleSmall

// figuresSetup is the saved world file.
type figuresSetup struct {
	dir, path string
}

func buildFigures(r *run) (*figuresSetup, error) {
	t := time.Now()
	w, err := core.BuildWorld(figuresScale, worldSeed)
	if err != nil {
		return nil, err
	}
	r.sample("gen.generate_s", time.Since(t).Seconds())
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "figures-")
	if err != nil {
		return nil, err
	}
	s := &figuresSetup{dir: dir, path: filepath.Join(dir, "world.fedi")}
	t = time.Now()
	if err := w.SaveFile(s.path); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("save world: %w", err)
	}
	r.sample("dataset.save_s", time.Since(t).Seconds())
	return s, nil
}

func runFigures(r *run) error {
	s, err := timeSetup(r, func() (*figuresSetup, error) { return buildFigures(r) },
		func(s *figuresSetup) { os.RemoveAll(s.dir) })
	if err != nil {
		return err
	}
	defer os.RemoveAll(s.dir)

	ids := make([]string, 0, len(experimentIDs))
	for _, e := range core.Experiments() {
		ids = append(ids, e.ID)
	}
	r.check(strings.Join(ids, ",") == strings.Join(experimentIDs, ","), "core.Experiments() is %v, the ledger lists %v", ids, experimentIDs)

	var first []byte
	var world *dataset.World
	round := func() error {
		t, c := time.Now(), cpuTime()
		w, err := dataset.LoadFile(s.path)
		if err != nil {
			return fmt.Errorf("load world: %w", err)
		}
		var buf bytes.Buffer
		err = core.RunAll(w, &buf)
		r.round(cpuTime()-c, time.Since(t))

		r.attempted += int64(len(ids))
		switch {
		case !r.check(err == nil, "RunAll: %v", err):
			r.failed += int64(len(ids))
		case first == nil:
			world = w
			first = buf.Bytes()
			r.failed += int64(checkReport(r, w, string(first)))
		case !r.check(bytes.Equal(buf.Bytes(), first), "RunAll report differs between rounds"):
			r.failed += int64(len(ids))
		}
		return nil
	}

	if !r.traced {
		if err := rounds(r.budget, round); err != nil {
			return err
		}
		// The loaded world stays live across the measurement, as it does for
		// a user who goes on to query it.
		r.heapMB = heapAfterGC()
		runtime.KeepAlive(world)
		return nil
	}

	p0 := snapProc()
	if err := rounds(r.budget/2, round); err != nil {
		return err
	}
	r.recordProc(p0, snapProc(), int64(len(r.wallS)*len(ids)))
	r.set("trace.untraced_wall_s", median(r.wallS))

	// Traced round: the load and every experiment on its own, one at a
	// time; the spans cannot be taken inside RunAll from outside.
	t := time.Now()
	w, err := dataset.LoadFile(s.path)
	if err != nil {
		return fmt.Errorf("load world: %w", err)
	}
	r.set("dataset.load_s", time.Since(t).Seconds())
	for _, e := range core.Experiments() {
		te := time.Now()
		err := e.Run(w, io.Discard)
		r.set("core.exp_s."+e.ID, time.Since(te).Seconds())
		r.check(err == nil, "%s: %v", e.ID, err)
	}
	r.set("trace.traced_wall_s", time.Since(t).Seconds())
	r.set("trace.overhead_share", r.ledger["trace.traced_wall_s"]/r.ledger["trace.untraced_wall_s"]-1)
	return nil
}

// checkReport holds one RunAll report to properties computed apart from
// the program and returns how many experiment sections fail them: every
// section is present in order; removal curves never rise and start at the
// largest-component share a BFS over the loaded world gives; availability
// figures are percentages in [0, 100].
func checkReport(r *run, w *dataset.World, report string) int {
	sections := map[string]string{}
	rest := report
	for i, id := range experimentIDs {
		head := "==== " + id + " — "
		at := strings.Index(rest, head)
		if !r.check(at >= 0, "report has no %s section after %s", id, experimentIDs[max(i-1, 0)]) {
			return len(experimentIDs) - i
		}
		rest = rest[at+len(head):]
		end := strings.Index(rest, "\n==== ")
		if end < 0 {
			end = len(rest)
		}
		sections[id] = rest[:end]
	}
	bad := 0
	fail := func(ok bool, format string, args ...any) {
		if !r.check(ok, format, args...) {
			bad++
		}
	}
	social := fmt.Sprintf("%.3f", lccShare(w.Social))
	fed := fmt.Sprintf("%.3f", lccShare(w.Federation))
	for _, c := range []struct{ id, series, want string }{
		{"fig12", "Mastodon", social},
		{"fig13a", "", fed},
		{"fig13b", "", fed},
	} {
		tables := parseTables(sections[c.id])
		ok := len(tables) > 0
		for _, tb := range tables {
			if c.series != "" && tb.title != c.series {
				continue
			}
			col := tb.column("LCC")
			if col < 0 || len(tb.rows) == 0 {
				ok = false
				break
			}
			ok = ok && tb.rows[0][0] == 0 && tb.cells[0][col] == c.want
			for k := 1; k < len(tb.rows); k++ {
				ok = ok && tb.rows[k][col] <= tb.rows[k-1][col]
			}
		}
		fail(ok, "%s: removal curve rises or does not start at the BFS largest component %s", c.id, c.want)
	}
	for _, id := range []string{"fig15", "fig16", "ext-capacity", "ext-dht"} {
		tables := parseTables(sections[id])
		ok := len(tables) > 0
		for _, tb := range tables {
			for _, row := range tb.rows {
				for _, v := range row[1:] {
					ok = ok && v >= 0 && v <= 100
				}
			}
		}
		fail(ok, "%s: availability outside [0, 100]%%", id)
	}
	return bad
}

// table is one analysis.Table block: title line, header, dashes, rows.
type table struct {
	title   string
	headers []string
	cells   [][]string
	rows    [][]float64
}

func (t *table) column(name string) int {
	for i, h := range t.headers {
		if h == name {
			return i
		}
	}
	return -1
}

// parseTables reads every table of a section whose cells are all numeric.
// Columns are separated by runs of two or more spaces.
func parseTables(section string) []table {
	lines := strings.Split(section, "\n")
	var out []table
	for i := 1; i+1 < len(lines); i++ {
		if !strings.HasPrefix(lines[i+1], "---") {
			continue
		}
		tb := table{title: strings.TrimSpace(lines[i-1]), headers: splitCells(lines[i])}
		for _, l := range lines[i+2:] {
			cells := splitCells(l)
			if len(cells) != len(tb.headers) {
				break
			}
			row := make([]float64, len(cells))
			numeric := true
			for k, c := range cells {
				v, err := strconv.ParseFloat(c, 64)
				numeric = numeric && err == nil
				row[k] = v
			}
			if !numeric {
				break
			}
			tb.cells = append(tb.cells, cells)
			tb.rows = append(tb.rows, row)
		}
		out = append(out, tb)
	}
	return out
}

func splitCells(line string) []string {
	var cells []string
	for _, f := range strings.Split(line, "  ") {
		if f = strings.TrimSpace(f); f != "" {
			cells = append(cells, f)
		}
	}
	return cells
}

// lccShare is the share of nodes in the largest weakly connected
// component, by breadth-first search over both edge directions.
func lccShare(g *graph.Directed) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	seen := make([]bool, n)
	queue := make([]int32, 0, n)
	best := 0
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		queue = append(queue[:0], int32(s))
		for k := 0; k < len(queue); k++ {
			v := queue[k]
			for _, adj := range [][]int32{g.Out(v), g.In(v)} {
				for _, u := range adj {
					if !seen[u] {
						seen[u] = true
						queue = append(queue, u)
					}
				}
			}
		}
		best = max(best, len(queue))
	}
	return float64(best) / float64(n)
}
