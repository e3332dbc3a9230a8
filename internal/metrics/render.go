package metrics

// Prometheus text exposition rendering (format version 0.0.4) and the
// matching parser the daemon's tests scrape with (TestDaemonLoad, the
// daemon's /stats-vs-/metrics cross-check). Families render sorted by
// name and series sorted by label values, so repeated renders of an
// unchanged registry are byte-identical — goldenable.

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

// WriteText renders every family in the registry. A nil registry
// renders nothing.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
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
	f.mu.Lock()
	ss := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		ss = append(ss, s)
	}
	f.mu.Unlock()
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
		case f.kind == counterKind:
			fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, s.values, "", 0), s.c.Value())
		default:
			fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, s.values, "", 0), fmtFloat(s.g.Value()))
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

// --- Parsing ---------------------------------------------------------------

// Sample is one parsed exposition line. Histograms appear as their
// component _bucket/_sum/_count samples.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Snapshot is a parsed scrape.
type Snapshot struct {
	Samples []Sample
	// Families is the set of `# TYPE`-declared family names.
	Families map[string]string // name -> type
}

// Value returns the single sample matching name and the given label
// pairs exactly-as-subset (every given pair must match; other labels
// are ignored), summing when several match.
func (s *Snapshot) Value(name string, labelPairs ...string) float64 {
	var sum float64
	for _, sm := range s.Samples {
		if sm.Name != name || !matches(sm.Labels, labelPairs) {
			continue
		}
		sum += sm.Value
	}
	return sum
}

func matches(labels map[string]string, pairs []string) bool {
	for i := 0; i+1 < len(pairs); i += 2 {
		if labels[pairs[i]] != pairs[i+1] {
			return false
		}
	}
	return true
}

// ParseText parses a text exposition scrape.
func ParseText(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{Families: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if fields := strings.Fields(line); len(fields) >= 4 && fields[1] == "TYPE" {
				snap.Families[fields[2]] = fields[3]
			}
			continue
		}
		sample, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", ln, err)
		}
		snap.Samples = append(snap.Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return snap, nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := -1
		esc := false
		inQuote := false
		for i := 1; i < len(rest); i++ {
			c := rest[i]
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inQuote = !inQuote
			case c == '}' && !inQuote:
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated labels in %q", line)
		}
		if err := parseLabels(rest[1:end], s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(in string, out map[string]string) error {
	for len(in) > 0 {
		eq := strings.Index(in, "=")
		if eq < 0 || eq+1 >= len(in) || in[eq+1] != '"' {
			return fmt.Errorf("bad label segment %q", in)
		}
		name := strings.TrimSpace(in[:eq])
		var val strings.Builder
		i := eq + 2
		for ; i < len(in); i++ {
			c := in[i]
			if c == '\\' && i+1 < len(in) {
				i++
				switch in[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(in[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(in) {
			return fmt.Errorf("unterminated label value in %q", in)
		}
		out[name] = val.String()
		in = in[i+1:]
		in = strings.TrimPrefix(in, ",")
	}
	return nil
}
