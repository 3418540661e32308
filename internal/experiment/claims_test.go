package experiment

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"amrt/internal/sim"
)

// claim is one row of the paper-claims table: a numeric claim of the
// paper (DESIGN.md §3) or of EXPERIMENTS.md, with the paper's value (NaN
// where it gives none), ours when the row was recorded, and how far a
// later run may move from it. The claim's direction is value op bound;
// a row whose direction does not hold names its EXPERIMENTS.md known
// deviation (dev) and cause, and still pins today's value. measure makes
// the row's run, or reuses the one another row made, checks the run's
// own properties and returns the value. A row that needs a
// default-scale run has cmd, the command that regenerates ours, instead:
// tier-1 checks that it is complete and does not run it.
type claim struct {
	name, source, what string
	paper, ours, tol   float64
	op                 string // < <= > >=
	bound              float64
	dev                int
	cause              string
	measure            func(t *testing.T) float64
	cmd                string
}

func (c claim) holds(v float64) bool {
	return map[string]bool{"<": v < c.bound, "<=": v <= c.bound, ">": v > c.bound, ">=": v >= c.bound}[c.op]
}

// TestPaperClaims is the reproduction's scorecard: every row is complete
// and its recorded value agrees with its direction and deviation; a row
// with a run reads within tol of that value, and its direction holds
// exactly when it names no deviation. A change that moves a value beyond
// tol, or flips a verdict, re-records the row. `go test -run
// TestPaperClaims -v` prints the table.
func TestPaperClaims(t *testing.T) {
	var devs []string
	for _, c := range paperClaims() {
		if c.dev != 0 {
			devs = append(devs, fmt.Sprintf("%d %s", c.dev, c.name))
		}
		t.Run(c.name, func(t *testing.T) {
			if c.source == "" || c.what == "" || c.tol <= 0 || !slices.Contains([]string{"<", "<=", ">", ">="}, c.op) || (c.measure == nil) == (c.cmd == "") {
				t.Fatal("incomplete row: it needs a source, a quantity, a tolerance, a direction and exactly one of a run or a command")
			}
			if c.holds(c.ours) != (c.dev == 0) || (c.dev != 0 && c.cause == "") {
				t.Errorf("recorded %g against %s %g: a row holds, or names a known deviation and its cause", c.ours, c.op, c.bound)
			}
			verdict, paper, v, run := "holds", "—", c.ours, "default scale, not run: "+c.cmd
			if c.dev != 0 {
				verdict = fmt.Sprintf("known deviation %d: %s", c.dev, c.cause)
			}
			if !math.IsNaN(c.paper) {
				paper = strconv.FormatFloat(c.paper, 'g', 4, 64)
			}
			if c.measure != nil {
				v, run = c.measure(t), fmt.Sprintf("recorded %.4g ± %g", c.ours, c.tol)
			}
			t.Logf("%s: paper %s, ours %.4g (%s; %s %g), %s", c.what, paper, v, run, c.op, c.bound, verdict)
			if !(math.Abs(v-c.ours) <= c.tol) { // NaN fails too
				t.Errorf("%s = %.6g moved from the recorded %.6g by more than %g: re-record the row", c.what, v, c.ours, c.tol)
			}
			if now := c.holds(v); now != (c.dev == 0) {
				t.Errorf("%s = %.6g: %s %g is now %v, the row says %s", c.what, v, c.op, c.bound, now, verdict)
			}
		})
	}
	t.Run("known-deviations", func(t *testing.T) {
		doc, err := os.ReadFile("../../EXPERIMENTS.md")
		need(t, err == nil, "%v", err)
		// Item N of the summary cites the rows of known deviation N.
		_, summary, _ := strings.Cut(string(doc), "## Known deviations (summary)")
		var cited []string
		for i, item := range regexp.MustCompile(`(?m)^\d+\. `).Split(summary, -1)[1:] {
			for _, m := range regexp.MustCompile("`TestPaperClaims/([^`]+)`").FindAllStringSubmatch(item, -1) {
				cited = append(cited, fmt.Sprintf("%d %s", i+1, m[1]))
			}
		}
		slices.Sort(cited)
		slices.Sort(devs)
		if !slices.Equal(cited, devs) {
			t.Errorf("EXPERIMENTS.md's known deviations cite %q; the table's deviation rows are %q", cited, devs)
		}
	})
}

// paperClaims is the table. Each run is the one a figure-shape test it
// replaced made, so the table makes no new run.
func paperClaims() []claim {
	nan := math.NaN()
	fig1 := sync.OnceValues(func() (MotivationResult, MotivationResult) {
		return Fig1(MustStack("pHost", StackOptions{})), Fig1(MustStack("AMRT", StackOptions{}))
	})
	// squeeze is the first bottleneck's utilization while f2 and f3 both run.
	squeeze := func(r MotivationResult) float64 { return r.Util.MeanBetween(4*sim.Millisecond, 8*sim.Millisecond) }
	fig5 := sync.OnceValue(func() []Fig5Row { return Fig5([][2]int{{10, 4}, {10, 8}}) })
	fig5Row := func(i int) func(t *testing.T) float64 {
		return func(t *testing.T) float64 {
			rows := fig5()
			r := rows[i]
			// The continuum simulation discretizes rate detection and needs
			// an extra round for the first marks to act: t_max + 2 RTTs.
			need(t, len(Fig5Table(rows).Rows) == 2 && r.ConvergedToFull && int(r.SimulatedRTTs) >= r.ModelMinRTTs && int(r.SimulatedRTTs) <= r.ModelMaxRTTs+2,
				"n=%d k=%d: converged %v in %v RTTs, model window [%d, %d+2]", r.N, r.K, r.ConvergedToFull, r.SimulatedRTTs, r.ModelMinRTTs, r.ModelMaxRTTs)
			return r.SimulatedRTTs
		}
	}
	fig11 := sync.OnceValues(Fig11All)
	f2Change := func(base string) func(t *testing.T) float64 { // AMRT's f2 FCT against base's, %
		return func(t *testing.T) float64 {
			results, cmp := fig11()
			need(t, len(results) == len(ProtocolNames()) && len(cmp.Rows) == 4, "Fig11All shape wrong")
			f2 := map[string]float64{}
			for _, r := range results {
				need(t, r.Flows[1].Done, "%s: f2 did not complete", r.Stack)
				f2[r.Stack] = float64(r.Flows[1].FCT())
			}
			return 100 * (f2["AMRT"]/f2[base] - 1)
		}
	}
	fig14Run := sync.OnceValues(func() (SimConfig, []M2MCell) {
		cfg := DefaultSimConfig()
		cfg.Repeats, cfg.HomaDegrees = 1, []int{2}
		return cfg, Fig14Cells(cfg, []float64{0.5})
	})
	fig14 := func(t *testing.T, variant string) M2MCell {
		cfg, cells := fig14Run()
		need(t, len(Fig14Tables(cfg, []float64{0.5}, cells)) == 2, "Fig14Tables shape wrong")
		return find(t, cells, func(c M2MCell) bool { return c.Variant == variant })
	}
	h2h := sync.OnceValue(func() []HeadToHeadCell { return HeadToHead(StackOptions{}) })
	h2hIncast := func(t *testing.T) (sird, amrt HeadToHeadCell) {
		if testing.Short() {
			t.Skip("head-to-head runs 6 audited fat-tree cells")
		}
		cells := h2h()
		need(t, len(cells) == 2*len(HeadToHeadProtocols()) && len(HeadToHeadTable(cells).Rows) == len(cells), "%d head-to-head cells", len(cells))
		for _, c := range cells {
			need(t, c.Completed == c.Total, "%s/%s completed %d/%d flows", c.Workload, c.Stack, c.Completed, c.Total)
		}
		return find(t, cells, func(c HeadToHeadCell) bool { return c.Workload == "incast" && c.Stack == "SIRD" }),
			find(t, cells, func(c HeadToHeadCell) bool { return c.Workload == "incast" && c.Stack == "AMRT" })
	}
	const (
		fig12Cmd = "go run ./cmd/figures -fig 12 -loads 0.5,0.7 -flows 600, DataMining row at load 0.7"
		fig13Cmd = "go run ./cmd/figures -fig 13 -counts 100,200,400,800 -flows 800, DataMining row at 800 flows"
		dev2     = "our Homa (two priority bands, 128-packet buffers) and NDP (trimming) keep the blind-start bursts AMRT's 8-packet caps forfeit"
		dev3     = "vacancies on a packet path are consecutive, the model's worst case, and the first marks need one RTT of arrivals to act"
	)
	return []claim{
		{name: "fig1/pHost-squeeze", source: "DESIGN.md §3 Fig 1", what: "pHost first-bottleneck utilization, f2+f3 active (4–8 ms)",
			paper: 0.66, ours: 0.7275, tol: 0.02, op: "<=", bound: 0.85, measure: func(*testing.T) float64 { ph, _ := fig1(); return squeeze(ph) }},
		{name: "fig1/AMRT-squeeze", source: "EXPERIMENTS.md Fig. 1", what: "AMRT first-bottleneck utilization, f2+f3 active (4–8 ms)",
			paper: nan, ours: 0.9093, tol: 0.02, op: ">=", bound: 0.85, measure: func(*testing.T) float64 { _, am := fig1(); return squeeze(am) }},
		{name: "fig1/AMRT-gain", source: "EXPERIMENTS.md Fig. 1", what: "AMRT minus pHost squeezed utilization",
			paper: nan, ours: 0.1818, tol: 0.02, op: ">=", bound: 0.1, measure: func(*testing.T) float64 { ph, am := fig1(); return squeeze(am) - squeeze(ph) }},
		{name: "fig2/AMRT-mean-util-gain", source: "DESIGN.md §3 Fig 2", what: "AMRT minus pHost mean bottleneck utilization, same byte total",
			paper: nan, ours: 0.4743, tol: 0.02, op: ">", bound: 0, measure: func(t *testing.T) float64 {
				ph, am := Fig2(MustStack("pHost", StackOptions{})), Fig2(MustStack("AMRT", StackOptions{}))
				need(t, len(ph.FlowSeries) == 4 && len(am.FlowSeries) == 4, "expected four per-flow series")
				return am.Util.Mean() - ph.Util.Mean()
			}},
		{name: "fig5/n10-k4", source: "DESIGN.md §3 Fig 5", what: "RTTs for AMRT to fill k=4 of n=10 slots, against the model's t_max",
			paper: 4, ours: 6, tol: 0.5, op: "<=", bound: 4, dev: 3, cause: dev3, measure: fig5Row(0)},
		{name: "fig5/n10-k8", source: "DESIGN.md §3 Fig 5", what: "RTTs for AMRT to fill k=8 of n=10 slots, against the model's t_max",
			paper: 8, ours: 9, tol: 0.5, op: "<=", bound: 8, dev: 3, cause: dev3, measure: fig5Row(1)},
		{name: "fig7/1MB-util-gain", source: "DESIGN.md §3 Fig 7", what: "model max utilization gain of a 1 MB flow at R/C = 0.5",
			paper: nan, ours: 1.994, tol: 0.001, op: ">", bound: 1, measure: func(t *testing.T) float64 {
				tables := Fig7Tables()
				need(t, len(tables) == 2 && len(tables[0].Rows) == 9 && len(tables[1].Rows) == 9, "Fig7Tables shape wrong")
				for _, row := range tables[0].Rows {
					for c := 1; c < len(row); c += 2 {
						need(t, num(t, row[c]) <= num(t, row[c+1]), "R/C %s: min gain %s exceeds max %s", row[0], row[c], row[c+1])
					}
				}
				return num(t, tables[0].Rows[4][4])
			}},
		{name: "fig9/f2-FCT", source: "DESIGN.md §3 Fig 9", what: "AMRT f2 FCT, ms, after f1 releases its half (a permanent half share needs 32)",
			paper: nan, ours: 19.94, tol: 0.5, op: "<=", bound: 30, measure: func(t *testing.T) float64 {
				res := Fig9(MustStack("AMRT", StackOptions{}))
				for i, f := range res.Flows {
					need(t, f.Done, "flow %d did not complete", i+1)
				}
				need(t, len(res.Series) == 4, "expected four throughput series")
				return res.Flows[1].FCT().Milliseconds()
			}},
		{name: "fig11/f2-vs-pHost", source: "DESIGN.md §3 Fig 11", what: "AMRT f2 FCT against pHost's, %",
			paper: -36, ours: -9.976, tol: 1, op: "<", bound: 0, measure: f2Change("pHost")},
		{name: "fig11/f2-vs-Homa", source: "DESIGN.md §3 Fig 11", what: "AMRT f2 FCT against Homa's, %",
			paper: -36, ours: -0.752, tol: 0.5, op: "<", bound: 0, measure: f2Change("Homa")},
		{name: "fig11/f2-vs-NDP", source: "DESIGN.md §3 Fig 11", what: "AMRT f2 FCT against NDP's, %",
			paper: -12.7, ours: -15.8, tol: 1, op: "<", bound: 0, measure: f2Change("NDP")},
		{name: "fig12/WS0.5-small-vs-pHost", source: "EXPERIMENTS.md Fig. 12", what: "AMRT AFCT against pHost's, %, WebSearch 0.5, 2×2×6 leaf-spine",
			paper: nan, ours: -23.2, tol: 2, op: "<", bound: 0, measure: func(t *testing.T) float64 {
				cfg := smallConfig()
				cfg.Protocols = []string{"pHost", "AMRT"}
				cells := Fig12Cells(cfg)
				tables := Fig12Tables(cfg, cells)
				need(t, len(cells) == 2 && len(tables) == 1 && len(tables[0].Rows) == 1, "Fig12 shape wrong")
				return 100 * (float64(cells[1].Res.AFCT)/float64(cells[0].Res.AFCT) - 1)
			}},
		{name: "fig12/DM0.7-vs-pHost", source: "DESIGN.md §3 Fig 12", what: "AMRT AFCT against pHost's, %", paper: -40.8, ours: -41.14, tol: 2, op: "<", bound: 0, cmd: fig12Cmd},
		{name: "fig12/DM0.7-vs-Homa", source: "DESIGN.md §3 Fig 12", what: "AMRT AFCT against Homa's, %", paper: -26.4, ours: 2.38, tol: 2, op: "<", bound: 0, dev: 2, cause: dev2, cmd: fig12Cmd},
		{name: "fig12/DM0.7-vs-NDP", source: "DESIGN.md §3 Fig 12", what: "AMRT AFCT against NDP's, %", paper: -18.3, ours: 0.24, tol: 2, op: "<", bound: 0, dev: 2, cause: dev2, cmd: fig12Cmd},
		{name: "fig13/DM250-small-vs-pHost", source: "EXPERIMENTS.md Fig. 13", what: "AMRT minus pHost utilization, DataMining, 250 flows, 2×2×6 leaf-spine",
			paper: nan, ours: 0.1644, tol: 0.02, op: ">=", bound: -0.01, measure: func(t *testing.T) float64 {
				cfg := smallConfig()
				cfg.Workloads, cfg.Protocols = []string{"DataMining"}, []string{"pHost", "AMRT"}
				// Enough heavy-tailed flows on the small fabric that
				// conservative clocking visibly under-uses the bottlenecks.
				cells := Fig13Cells(cfg, []int{250})
				need(t, len(cells) == 2 && len(Fig13Tables(cfg, []int{250}, cells)) == 1, "Fig13 shape wrong")
				for _, c := range cells {
					need(t, c.Res.Utilization > 0 && c.Res.Utilization <= 1, "%s utilization %v out of range", c.Proto, c.Res.Utilization)
				}
				return cells[1].Res.Utilization - cells[0].Res.Utilization
			}},
		{name: "fig13/DM800-vs-pHost", source: "DESIGN.md §3 Fig 13", what: "AMRT utilization over pHost's, %", paper: 36.8, ours: 168.2, tol: 5, op: ">", bound: 0, cmd: fig13Cmd},
		{name: "fig13/DM800-vs-Homa", source: "DESIGN.md §3 Fig 13", what: "AMRT utilization over Homa's, %", paper: 22.5, ours: 5.97, tol: 2, op: ">", bound: 0, cmd: fig13Cmd},
		{name: "fig13/DM800-vs-NDP", source: "DESIGN.md §3 Fig 13", what: "AMRT utilization over NDP's, %", paper: 11.6, ours: -0.39, tol: 2, op: ">", bound: 0, dev: 2, cause: dev2, cmd: fig13Cmd},
		{name: "sec2/DM800-pHost-util", source: "DESIGN.md §3 §2 numbers", what: "pHost bottleneck utilization, at most the paper's", paper: 0.61, ours: 0.192, tol: 0.02, op: "<=", bound: 0.61, cmd: fig13Cmd},
		{name: "sec2/DM800-Homa-util", source: "DESIGN.md §3 §2 numbers", what: "Homa bottleneck utilization, at most the paper's", paper: 0.68, ours: 0.486, tol: 0.02, op: "<=", bound: 0.68, cmd: fig13Cmd},
		{name: "sec2/DM800-NDP-util", source: "DESIGN.md §3 §2 numbers", what: "NDP bottleneck utilization, at most the paper's", paper: 0.75, ours: 0.517, tol: 0.02, op: "<=", bound: 0.75, cmd: fig13Cmd},
		{name: "fig14/util-vs-Homa-d2", source: "DESIGN.md §3 Fig 14", what: "AMRT minus Homa-d2 utilization, responsive ratio 0.5",
			paper: nan, ours: 0.1179, tol: 0.02, op: ">", bound: 0, measure: func(t *testing.T) float64 { return fig14(t, "AMRT").Util - fig14(t, "Homa-d2").Util }},
		{name: "fig14/maxq-vs-Homa-d2", source: "DESIGN.md §3 Fig 14", what: "AMRT minus Homa-d2 max queue, packets, responsive ratio 0.5",
			paper: nan, ours: -125, tol: 5, op: "<", bound: 0, measure: func(t *testing.T) float64 { return fig14(t, "AMRT").MaxQueue - fig14(t, "Homa-d2").MaxQueue }},
		{name: "fig14/AMRT-maxq", source: "EXPERIMENTS.md Fig. 14", what: "AMRT max queue, packets, within its cap regime",
			paper: nan, ours: 9, tol: 1, op: "<=", bound: 16, measure: func(t *testing.T) float64 { return fig14(t, "AMRT").MaxQueue }},
		{name: "ablation/no-marking-FCT", source: "EXPERIMENTS.md Extras", what: "ramp FCT without marking (pHost) over AMRT's default",
			paper: nan, ours: 6.189, tol: 0.1, op: ">", bound: 2, measure: func(t *testing.T) float64 {
				tbl := MarkingAblation()
				need(t, len(tbl.Rows) == 6, "rows = %d", len(tbl.Rows))
				return num(t, tbl.Rows[5][1]) / num(t, tbl.Rows[0][1])
			}},
		{name: "ablation/queue-cap-watermark", source: "EXPERIMENTS.md Extras", what: "max queue at cap 128 minus at cap 4, packets",
			paper: nan, ours: 0, tol: 1, op: ">=", bound: 0, measure: func(t *testing.T) float64 {
				tbl := QueueCapAblation()
				need(t, len(tbl.Rows) == 5, "rows = %d", len(tbl.Rows))
				return num(t, tbl.Rows[4][4]) - num(t, tbl.Rows[0][4])
			}},
		{name: "incast/AMRT-fan-in-8", source: "EXPERIMENTS.md Extras", what: "AMRT 8×100 KB burst completion over the 0.64 ms ideal drain",
			paper: nan, ours: 1.673, tol: 0.05, op: "<=", bound: 100, measure: func(t *testing.T) float64 {
				tbl := IncastTable([]int{2, 8}, 100_000)
				need(t, len(tbl.Rows) == 2 && len(tbl.Cols) == 1+len(ProtocolNames()), "table shape %dx%d", len(tbl.Rows), len(tbl.Cols))
				for c := 1; c < len(tbl.Cols); c++ {
					// More senders, longer burst completion, and nothing
					// sane takes 100× the ideal drain.
					lo, hi := num(t, tbl.Rows[0][c]), num(t, tbl.Rows[1][c])
					need(t, lo < hi && hi <= 64, "%s: fan-in 8 takes %.3f ms, fan-in 2 %.3f ms", tbl.Cols[c], hi, lo)
				}
				return num(t, tbl.Rows[1][slices.Index(tbl.Cols, "AMRT")]) / 0.64
			}},
		{name: "related/DCTCP-vs-AMRT-queue", source: "EXPERIMENTS.md Extras", what: "DCTCP minus AMRT max queue under a 16-to-1 burst, packets",
			paper: nan, ours: 120, tol: 2, op: ">", bound: 0, measure: func(t *testing.T) float64 {
				tbl := RelatedWorkTable()
				need(t, len(tbl.Rows) == 1+len(ProtocolNames()) && tbl.Rows[0][0] == "DCTCP" && tbl.Rows[4][0] == "AMRT" && tbl.Rows[5][0] == "SIRD",
					"RelatedWorkTable rows or protocol order wrong")
				return num(t, tbl.Rows[0][4]) - num(t, tbl.Rows[4][4])
			}},
		{name: "h2h/incast-maxq", source: "EXPERIMENTS.md SIRD head-to-head", what: "SIRD minus AMRT incast max queue, packets",
			paper: nan, ours: -3, tol: 1, op: "<=", bound: 0, measure: func(t *testing.T) float64 { s, a := h2hIncast(t); return float64(s.MaxQueue - a.MaxQueue) }},
		{name: "h2h/incast-util", source: "EXPERIMENTS.md SIRD head-to-head", what: "SIRD over AMRT incast utilization",
			paper: nan, ours: 1.291, tol: 0.03, op: ">=", bound: 0.9, measure: func(t *testing.T) float64 { s, a := h2hIncast(t); return s.Utilization / a.Utilization }},
	}
}

// need fails the row at once when a property of its run does not hold.
func need(t *testing.T, ok bool, format string, args ...any) {
	t.Helper()
	if !ok {
		t.Fatalf(format, args...)
	}
}

// find returns the first element of a run's cells that matches.
func find[T any](t *testing.T, cells []T, match func(T) bool) T {
	t.Helper()
	i := slices.IndexFunc(cells, match)
	need(t, i >= 0, "no such cell")
	return cells[i]
}

// num parses one numeric table cell.
func num(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	need(t, err == nil, "table cell %q: %v", s, err)
	return v
}
