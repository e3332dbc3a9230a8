package analyze

import (
	"fmt"
	"html/template"
	"io"
	"math"

	"fortd/internal/explain"
	"fortd/internal/trace"
)

// Table is a pre-rendered table a caller can attach to a report
// section (e.g. the profile artifact's headline figures).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Note   string
}

// Section is one workload's slice of an HTML report.
type Section struct {
	Name string
	// Headline is the one-line run summary shown under the heading.
	Headline string
	Analysis *Analysis
	Remarks  []explain.Remark
	Sweep    *Sweep
	Tables   []Table
}

// Page is a full report: one or more sections rendered into a single
// self-contained HTML document (inline CSS + inline SVG, no external
// assets, no scripts).
type Page struct {
	Title    string
	Subtitle string
	Sections []*Section
}

// WriteHTML renders the page. The document is self-contained by
// construction: the template references no URLs.
func WriteHTML(w io.Writer, p *Page) error {
	vp := &htmlPage{Title: p.Title, Subtitle: p.Subtitle}
	for _, s := range p.Sections {
		vp.Sections = append(vp.Sections, buildSection(s))
	}
	return reportTmpl.Execute(w, vp)
}

// --- view models ----------------------------------------------------------
//
// All geometry and color is precomputed here so the template only
// stamps values into elements.

type htmlPage struct {
	Title    string
	Subtitle string
	Sections []*htmlSection
}

type htmlSection struct {
	Name           string
	Headline       string
	Heatmap        *svgHeatmap
	Hotspots       []trace.SiteRow
	HasCrit        bool
	Timeline       *svgTimeline
	ProcBars       *svgProcBars
	Histo          *svgHisto
	Speedup        *svgSpeedup
	SweepRows      []sweepRow
	Remarks        []remarkGroup
	RemarksOmitted int
	Tables         []Table
}

type svgRect struct {
	X, Y, W, H float64
	Fill       string
	Title      string
}

type svgText struct {
	X, Y   float64
	Text   string
	Anchor string
}

type svgLine struct {
	X1, Y1, X2, Y2 float64
	Dash           bool
}

type svgHeatmap struct {
	W, H  float64
	Cells []svgRect
	XLab  []svgText
	YLab  []svgText
}

type svgTimeline struct {
	W, H  float64
	Bars  []svgRect
	Ticks []svgText
}

type svgProcBars struct {
	W, H float64
	Bars []svgRect
	Labs []svgText
}

type svgHisto struct {
	W, H float64
	Bars []svgRect
	Labs []svgText
}

type svgSpeedup struct {
	W, H   float64
	Ideal  svgLine
	Path   string
	Points []svgRect
	Axes   []svgLine
	Ticks  []svgText
}

type sweepRow struct {
	P          int
	Time       string
	Speedup    string
	Efficiency string
	Msgs       int64
	Words      int64
}

type remarkGroup struct {
	Proc    string
	Remarks []explain.Remark
}

// Palette: the skill-validated reference palette (light mode). The
// sequential blue ramp colors the heatmap; categorical slots 1 (blue)
// and 2 (orange) plus neutral gray color the compute/send/blocked
// state breakdown, so "blocked" reads as recessive idle time.
const (
	colCompute = "#2a78d6" // categorical slot 1, blue
	colSend    = "#eb6834" // categorical slot 2, orange
	colBlocked = "#75746e" // neutral gray: idle time recedes
	colAccent  = "#2a78d6"
	colZero    = "#f0efec" // empty-cell surface
)

// seqStops is the sequential blue ramp, light→dark (steps 100, 400, 700).
var seqStops = [3][3]int{
	{0xcd, 0xe2, 0xfb},
	{0x39, 0x87, 0xe5},
	{0x0d, 0x36, 0x6b},
}

// seqColor maps t ∈ [0,1] onto the sequential ramp.
func seqColor(t float64) string {
	if t <= 0 {
		return colZero
	}
	if t > 1 {
		t = 1
	}
	// two linear segments: 100→400, 400→700
	var a, b [3]int
	if t < 0.5 {
		a, b = seqStops[0], seqStops[1]
		t = t * 2
	} else {
		a, b = seqStops[1], seqStops[2]
		t = (t - 0.5) * 2
	}
	lerp := func(x, y int) int { return x + int(t*float64(y-x)) }
	return fmt.Sprintf("#%02x%02x%02x", lerp(a[0], b[0]), lerp(a[1], b[1]), lerp(a[2], b[2]))
}

func buildSection(s *Section) *htmlSection {
	hs := &htmlSection{Name: s.Name, Headline: s.Headline, Tables: s.Tables}
	if a := s.Analysis; a != nil {
		hs.Heatmap = buildHeatmap(a)
		hs.Hotspots = trace.ByCost(a.Sites, 16)
		for _, h := range hs.Hotspots {
			if h.CPShare > 0 {
				hs.HasCrit = true
			}
		}
		hs.Timeline = buildTimeline(a)
		hs.ProcBars = buildProcBars(a)
		hs.Histo = buildHisto(a)
	}
	if s.Sweep != nil && len(s.Sweep.Points) > 0 {
		hs.Speedup = buildSpeedup(s.Sweep)
		for _, pt := range s.Sweep.Points {
			hs.SweepRows = append(hs.SweepRows, sweepRow{
				P:          pt.P,
				Time:       fmt.Sprintf("%.0f", pt.Time),
				Speedup:    fmt.Sprintf("%.2f", s.Sweep.Speedup(pt)),
				Efficiency: fmt.Sprintf("%.1f%%", 100*s.Sweep.Efficiency(pt)),
				Msgs:       pt.Msgs, Words: pt.Words,
			})
		}
	}
	hs.Remarks, hs.RemarksOmitted = groupRemarks(s.Remarks)
	return hs
}

func buildHeatmap(a *Analysis) *svgHeatmap {
	mx := a.Matrix
	if mx == nil || mx.N == 0 {
		return nil
	}
	cell := 40.0
	if mx.N > 12 {
		cell = 480.0 / float64(mx.N)
	}
	const m = 34.0 // margin for labels
	hm := &svgHeatmap{W: m + cell*float64(mx.N) + 2, H: m + cell*float64(mx.N) + 2}
	var maxW int64
	for s := range mx.Words {
		for _, w := range mx.Words[s] {
			maxW = max(maxW, w)
		}
	}
	for s := 0; s < mx.N; s++ {
		hm.YLab = append(hm.YLab, svgText{X: m - 6, Y: m + cell*float64(s) + cell/2 + 4,
			Text: mx.Label(s), Anchor: "end"})
		hm.XLab = append(hm.XLab, svgText{X: m + cell*float64(s) + cell/2, Y: m - 8,
			Text: mx.Label(s), Anchor: "middle"})
		for d := 0; d < mx.N; d++ {
			t := 0.0
			if maxW > 0 && mx.Words[s][d] > 0 {
				// sqrt scale keeps small flows visible next to the peak
				t = math.Sqrt(float64(mx.Words[s][d]) / float64(maxW))
			}
			hm.Cells = append(hm.Cells, svgRect{
				X: m + cell*float64(d), Y: m + cell*float64(s),
				W: cell - 2, H: cell - 2,
				Fill: seqColor(t),
				Title: fmt.Sprintf("%s -> %s: %d msgs, %d words, %.1fus",
					mx.Label(s), mx.Label(d), mx.Msgs[s][d], mx.Words[s][d], mx.Cost[s][d]),
			})
		}
	}
	return hm
}

func buildTimeline(a *Analysis) *svgTimeline {
	if len(a.Timeline) == 0 || a.Total.Time <= 0 {
		return nil
	}
	const W, H, m = 660.0, 150.0, 30.0
	tl := &svgTimeline{W: W, H: H + 20}
	bw := (W - m) / float64(len(a.Timeline))
	capacity := float64(a.P) * a.BinWidth // processor-µs per bin
	for i, b := range a.Timeline {
		x := m + float64(i)*bw
		frac := func(v float64) float64 {
			if capacity <= 0 {
				return 0
			}
			return H * v / capacity
		}
		y := H
		title := fmt.Sprintf("t=%.0f-%.0fus: compute %.0f, send %.0f, blocked %.0f proc-us",
			b.Start, b.Start+a.BinWidth, b.Compute, b.Send, b.Blocked)
		for _, seg := range []struct {
			v    float64
			fill string
		}{{b.Compute, colCompute}, {b.Send, colSend}, {b.Blocked, colBlocked}} {
			h := frac(seg.v)
			if h <= 0 {
				continue
			}
			y -= h
			tl.Bars = append(tl.Bars, svgRect{X: x, Y: y, W: bw - 1, H: h - 0.5, Fill: seg.fill, Title: title})
		}
	}
	for i := 0; i <= 4; i++ {
		t := a.Total.Time * float64(i) / 4
		tl.Ticks = append(tl.Ticks, svgText{X: m + (W-m)*float64(i)/4, Y: H + 16,
			Text: fmt.Sprintf("%.0fµs", t), Anchor: "middle"})
	}
	return tl
}

func buildProcBars(a *Analysis) *svgProcBars {
	if len(a.Procs) == 0 {
		return nil
	}
	const W, rowH, m = 660.0, 18.0, 40.0
	maxClock := a.Total.Time
	if maxClock <= 0 {
		return nil
	}
	pb := &svgProcBars{W: W, H: rowH*float64(len(a.Procs)) + 6}
	for i, pp := range a.Procs {
		y := float64(i) * rowH
		pb.Labs = append(pb.Labs, svgText{X: m - 6, Y: y + rowH - 6,
			Text: fmt.Sprintf("p%d", pp.PID), Anchor: "end"})
		x := m
		title := fmt.Sprintf("p%d: compute %.1fus, send %.1fus, blocked %.1fus of %.1fus",
			pp.PID, pp.Compute, pp.Send, pp.Blocked, pp.Clock)
		for _, seg := range []struct {
			v    float64
			fill string
		}{{pp.Compute, colCompute}, {pp.Send, colSend}, {pp.Blocked, colBlocked}} {
			w := (W - m - 4) * seg.v / maxClock
			if w <= 0 {
				continue
			}
			pb.Bars = append(pb.Bars, svgRect{X: x, Y: y, W: w - 1, H: rowH - 4, Fill: seg.fill, Title: title})
			x += w
		}
	}
	return pb
}

func buildHisto(a *Analysis) *svgHisto {
	if len(a.Histogram) == 0 {
		return nil
	}
	const W, H, m = 420.0, 120.0, 30.0
	var maxMsgs int64
	for _, b := range a.Histogram {
		if b.Msgs > maxMsgs {
			maxMsgs = b.Msgs
		}
	}
	if maxMsgs == 0 {
		return nil
	}
	h := &svgHisto{W: W, H: H + 34}
	bw := (W - 8) / float64(len(a.Histogram))
	for i, b := range a.Histogram {
		bh := (H - m) * float64(b.Msgs) / float64(maxMsgs)
		rng := fmt.Sprintf("%d-%d", b.Lo, b.Hi)
		if b.Lo == b.Hi {
			rng = fmt.Sprintf("%d", b.Lo)
		}
		h.Bars = append(h.Bars, svgRect{
			X: 4 + float64(i)*bw, Y: H - bh, W: bw - 4, H: bh, Fill: colAccent,
			Title: fmt.Sprintf("%s words: %d msgs, %d words total", rng, b.Msgs, b.Words),
		})
		h.Labs = append(h.Labs, svgText{X: 4 + float64(i)*bw + bw/2, Y: H + 14, Text: rng, Anchor: "middle"})
		h.Labs = append(h.Labs, svgText{X: 4 + float64(i)*bw + bw/2, Y: H - bh - 4,
			Text: fmt.Sprintf("%d", b.Msgs), Anchor: "middle"})
	}
	h.Labs = append(h.Labs, svgText{X: W / 2, Y: H + 30, Text: "message size (words)", Anchor: "middle"})
	return h
}

func buildSpeedup(sw *Sweep) *svgSpeedup {
	const W, H, m = 340.0, 260.0, 36.0
	sp := &svgSpeedup{W: W, H: H}
	maxP := 1.0
	maxS := 1.0
	for _, pt := range sw.Points {
		if float64(pt.P) > maxP {
			maxP = float64(pt.P)
		}
		if s := sw.Speedup(pt); s > maxS {
			maxS = s
		}
	}
	if maxS < maxP {
		maxS = maxP // room for the ideal line
	}
	px := func(p float64) float64 { return m + (W-m-10)*p/maxP }
	py := func(s float64) float64 { return (H - m) - (H-m-10)*s/maxS }
	sp.Axes = []svgLine{
		{X1: m, Y1: H - m, X2: W - 6, Y2: H - m},
		{X1: m, Y1: H - m, X2: m, Y2: 6},
	}
	sp.Ideal = svgLine{X1: px(0), Y1: py(0), X2: px(maxP), Y2: py(maxP), Dash: true}
	path := ""
	for i, pt := range sw.Points {
		x, y := px(float64(pt.P)), py(sw.Speedup(pt))
		if i == 0 {
			path += fmt.Sprintf("M%.1f %.1f", x, y)
		} else {
			path += fmt.Sprintf(" L%.1f %.1f", x, y)
		}
		sp.Points = append(sp.Points, svgRect{X: x - 4, Y: y - 4, W: 8, H: 8, Fill: colAccent,
			Title: fmt.Sprintf("P=%d: speedup %.2fx, efficiency %.0f%%",
				pt.P, sw.Speedup(pt), 100*sw.Efficiency(pt))})
		sp.Ticks = append(sp.Ticks, svgText{X: x, Y: H - m + 16, Text: fmt.Sprintf("%d", pt.P), Anchor: "middle"})
	}
	sp.Path = path
	for i := 1; i <= 4; i++ {
		s := maxS * float64(i) / 4
		sp.Ticks = append(sp.Ticks, svgText{X: m - 6, Y: py(s) + 4, Text: fmt.Sprintf("%.0f", s), Anchor: "end"})
	}
	sp.Ticks = append(sp.Ticks, svgText{X: (W + m) / 2, Y: H - 6, Text: "processors", Anchor: "middle"})
	return sp
}

func groupRemarks(remarks []explain.Remark) ([]remarkGroup, int) {
	const maxRemarks = 200
	omitted := 0
	if len(remarks) > maxRemarks {
		omitted = len(remarks) - maxRemarks
		remarks = remarks[:maxRemarks]
	}
	var groups []remarkGroup
	idx := map[string]int{}
	for _, r := range remarks {
		proc := r.Proc
		if proc == "" {
			proc = "(program)"
		}
		i, ok := idx[proc]
		if !ok {
			i = len(groups)
			idx[proc] = i
			groups = append(groups, remarkGroup{Proc: proc})
		}
		groups[i].Remarks = append(groups[i].Remarks, r)
	}
	return groups, omitted
}

var reportTmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
  /* light-mode report; palette per the validated reference instance */
  :root { color-scheme: light; }
  body { font: 14px/1.5 system-ui, sans-serif; color: #0b0b0b; background: #fcfcfb;
         max-width: 980px; margin: 2rem auto; padding: 0 1rem; }
  h1 { font-size: 1.5rem; } h2 { font-size: 1.2rem; margin-top: 2.2rem;
       border-bottom: 1px solid #e5e4e0; padding-bottom: .3rem; }
  h3 { font-size: 1rem; margin-top: 1.6rem; }
  .sub, .note { color: #52514e; }
  table { border-collapse: collapse; margin: .6rem 0; }
  th, td { padding: 3px 10px; text-align: right; font-variant-numeric: tabular-nums; }
  th { color: #52514e; font-weight: 600; border-bottom: 1px solid #e5e4e0; }
  th:first-child, td:first-child { text-align: left; }
  tr:nth-child(even) td { background: #f5f4f1; }
  svg text { font: 11px system-ui, sans-serif; fill: #52514e; }
  .legend { display: flex; gap: 1.2rem; margin: .4rem 0; color: #52514e; font-size: 12px; }
  .legend span::before { content: ""; display: inline-block; width: 10px; height: 10px;
                         margin-right: 5px; border-radius: 2px; background: var(--c); }
  details { margin: .5rem 0; } summary { cursor: pointer; color: #52514e; }
  .remark { margin-left: 1rem; } .remark b { font-weight: 600; }
  .k-applied { color: #008300; } .k-missed { color: #e34948; } .k-note { color: #52514e; }
</style>
</head>
<body>
<h1>{{.Title}}</h1>
{{if .Subtitle}}<p class="sub">{{.Subtitle}}</p>{{end}}
{{range .Sections}}
<h2>{{.Name}}</h2>
{{if .Headline}}<p class="sub">{{.Headline}}</p>{{end}}

{{range .Tables}}
<h3>{{.Title}}</h3>
<table>
<tr>{{range .Header}}<th>{{.}}</th>{{end}}</tr>
{{range .Rows}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>{{end}}
</table>
{{if .Note}}<p class="note">{{.Note}}</p>{{end}}
{{end}}

{{with .Heatmap}}
<h3>Communication heatmap (words, src row &rarr; dst column)</h3>
<svg id="heatmap" width="{{.W}}" height="{{.H}}" role="img" aria-label="P by P communication matrix">
{{range .Cells}}<rect x="{{.X}}" y="{{.Y}}" width="{{.W}}" height="{{.H}}" rx="2" fill="{{.Fill}}"><title>{{.Title}}</title></rect>
{{end}}{{range .XLab}}<text x="{{.X}}" y="{{.Y}}" text-anchor="{{.Anchor}}">{{.Text}}</text>
{{end}}{{range .YLab}}<text x="{{.X}}" y="{{.Y}}" text-anchor="{{.Anchor}}">{{.Text}}</text>
{{end}}</svg>
{{end}}

{{if .Hotspots}}
<h3>Communication hotspots</h3>
<table id="hotspots">
<tr><th>site</th><th>op</th><th>msgs</th><th>words</th><th>send (µs)</th><th>blocked (µs)</th><th>cost (µs)</th>{{if .HasCrit}}<th>% of critical path</th>{{end}}</tr>
{{$crit := .HasCrit}}{{range .Hotspots}}<tr><td>{{.Site}}</td><td>{{.Op}}</td><td>{{.Msgs}}</td><td>{{.Words}}</td><td>{{printf "%.1f" .Send}}</td><td>{{printf "%.1f" .Blocked}}</td><td>{{printf "%.1f" .Cost}}</td>{{if $crit}}<td>{{printf "%.1f%%" .CPSharePct}}</td>{{end}}</tr>
{{end}}</table>
{{end}}

{{with .Timeline}}
<h3>Machine utilization over time</h3>
<div class="legend"><span style="--c:#2a78d6">compute</span><span style="--c:#eb6834">send</span><span style="--c:#75746e">blocked</span></div>
<svg id="timeline" width="{{.W}}" height="{{.H}}" role="img" aria-label="utilization timeline">
{{range .Bars}}<rect x="{{.X}}" y="{{.Y}}" width="{{.W}}" height="{{.H}}" fill="{{.Fill}}"><title>{{.Title}}</title></rect>
{{end}}{{range .Ticks}}<text x="{{.X}}" y="{{.Y}}" text-anchor="{{.Anchor}}">{{.Text}}</text>
{{end}}</svg>
{{end}}

{{with .ProcBars}}
<h3>Per-processor time breakdown</h3>
<div class="legend"><span style="--c:#2a78d6">compute</span><span style="--c:#eb6834">send</span><span style="--c:#75746e">blocked</span></div>
<svg id="profile" width="{{.W}}" height="{{.H}}" role="img" aria-label="per-processor profile">
{{range .Bars}}<rect x="{{.X}}" y="{{.Y}}" width="{{.W}}" height="{{.H}}" rx="2" fill="{{.Fill}}"><title>{{.Title}}</title></rect>
{{end}}{{range .Labs}}<text x="{{.X}}" y="{{.Y}}" text-anchor="{{.Anchor}}">{{.Text}}</text>
{{end}}</svg>
{{end}}

{{with .Histo}}
<h3>Message-size distribution</h3>
<svg id="histogram" width="{{.W}}" height="{{.H}}" role="img" aria-label="message size histogram">
{{range .Bars}}<rect x="{{.X}}" y="{{.Y}}" width="{{.W}}" height="{{.H}}" rx="2" fill="{{.Fill}}"><title>{{.Title}}</title></rect>
{{end}}{{range .Labs}}<text x="{{.X}}" y="{{.Y}}" text-anchor="{{.Anchor}}">{{.Text}}</text>
{{end}}</svg>
{{end}}

{{if .Speedup}}
<h3>Processor scaling</h3>
<svg id="speedup" width="{{.Speedup.W}}" height="{{.Speedup.H}}" role="img" aria-label="speedup curve">
{{range .Speedup.Axes}}<line x1="{{.X1}}" y1="{{.Y1}}" x2="{{.X2}}" y2="{{.Y2}}" stroke="#c9c8c2" stroke-width="1"/>
{{end}}<line x1="{{.Speedup.Ideal.X1}}" y1="{{.Speedup.Ideal.Y1}}" x2="{{.Speedup.Ideal.X2}}" y2="{{.Speedup.Ideal.Y2}}" stroke="#a8a7a0" stroke-width="1.5" stroke-dasharray="5 4"/>
<path d="{{.Speedup.Path}}" fill="none" stroke="#2a78d6" stroke-width="2"/>
{{range .Speedup.Points}}<rect x="{{.X}}" y="{{.Y}}" width="{{.W}}" height="{{.H}}" rx="4" fill="{{.Fill}}"><title>{{.Title}}</title></rect>
{{end}}{{range .Speedup.Ticks}}<text x="{{.X}}" y="{{.Y}}" text-anchor="{{.Anchor}}">{{.Text}}</text>
{{end}}</svg>
<table>
<tr><th>P</th><th>time (µs)</th><th>speedup</th><th>efficiency</th><th>msgs</th><th>words</th></tr>
{{range .SweepRows}}<tr><td>{{.P}}</td><td>{{.Time}}</td><td>{{.Speedup}}&times;</td><td>{{.Efficiency}}</td><td>{{.Msgs}}</td><td>{{.Words}}</td></tr>
{{end}}</table>
{{end}}

{{if .Remarks}}
<h3>Optimization remarks</h3>
<div id="remarks">
{{range .Remarks}}
<details open><summary>{{.Proc}} ({{len .Remarks}})</summary>
{{range .Remarks}}<div class="remark"><b class="k-{{.Kind}}">{{.Kind}}</b> [{{.Pass}}] {{if .Line}}line {{.Line}}: {{end}}{{.Name}} &mdash; {{.Msg}}</div>
{{end}}</details>
{{end}}
{{if .RemarksOmitted}}<p class="note">&hellip; {{.RemarksOmitted}} more remarks omitted</p>{{end}}
</div>
{{end}}
{{end}}
</body>
</html>
`))
