package metrics

// Prometheus text exposition rendering (format version 0.0.4).
// Families render sorted by name and series sorted by label values, so
// repeated renders of an unchanged registry are byte-identical —
// goldenable.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the HTTP Content-Type for the rendered text.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteText renders every family in the registry.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		f.write(bw)
	}
	return bw.Flush()
}

func (f *family) write(w *bufio.Writer) {
	ss := f.snapshot()
	sort.Slice(ss, func(i, j int) bool { return join(ss[i].values) < join(ss[j].values) })
	if f.help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
	for _, s := range ss {
		switch {
		case f.kind == histogramKind:
			f.writeHistogram(w, s)
		case s.fn != nil:
			fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, s.values, "", 0), fmtFloat(s.fn()))
		default:
			fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, s.values, "", 0), s.c.Value())
		}
	}
}

func (f *family) writeHistogram(w *bufio.Writer, s *series) {
	h := s.h
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.values, "le", b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.values, "le", inf), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, s.values, "", 0), fmtFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, s.values, "", 0), cum)
}

// inf sentinels the +Inf bucket bound for labelString.
var inf = func() float64 { v, _ := strconv.ParseFloat("+Inf", 64); return v }()

// labelString renders `{k="v",...}`, appending an le label when
// leName is non-empty; it renders "" for a label-free series.
func labelString(names, values []string, leName string, le float64) string {
	if len(names) == 0 && leName == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if leName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(leName)
		sb.WriteString(`="`)
		if le == inf {
			sb.WriteString("+Inf")
		} else {
			sb.WriteString(fmtFloat(le))
		}
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes a HELP string: backslash and newline only.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
