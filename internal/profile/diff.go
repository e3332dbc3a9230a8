package profile

import (
	"fmt"
	"io"
	"sort"

	"fortd/internal/trace"
)

// Thresholds are the per-metric relative deltas beyond which a site's
// change is classified a regression (worse) or improvement (better).
// A zero threshold means any increase counts; a negative threshold
// disables the metric.
type Thresholds struct {
	// Msgs and Words gate message count and communication volume.
	Msgs  float64
	Words float64
	// Send and Blocked gate sender-side injection time and
	// receiver-side stall time.
	Send    float64
	Blocked float64
}

// DefaultThresholds gates times at 10% (virtual time is deterministic
// but merged corpora mix runs) and volumes at any change (counts are
// exact, so any drift is a real behavior change).
func DefaultThresholds() Thresholds {
	return Thresholds{Msgs: 0, Words: 0, Send: 0.10, Blocked: 0.10}
}

// MetricDelta is one metric's old/new per-run means and classification.
type MetricDelta struct {
	Name string  `json:"name"`
	Old  float64 `json:"old"`
	New  float64 `json:"new"`
	// Pct is the relative change (New-Old)/Old; ±1 when Old is 0 and
	// New isn't (an appearing/vanishing cost has no finite ratio).
	Pct float64 `json:"pct"`
	// Class is "regression", "improvement" or "" (within threshold).
	Class string `json:"class,omitempty"`
}

// SiteDelta is one site's comparison between two profiles.
type SiteDelta struct {
	trace.SiteKey
	Metrics []MetricDelta `json:"metrics"`
}

// Regressed reports whether any metric regressed at this site.
func (d SiteDelta) Regressed() bool {
	for _, m := range d.Metrics {
		if m.Class == "regression" {
			return true
		}
	}
	return false
}

// Comparison is the result of diffing two profiles. Site lists are in
// canonical key order.
type Comparison struct {
	OldMeta Meta `json:"old_meta"`
	NewMeta Meta `json:"new_meta"`
	// OldRuns and NewRuns are the run counts the two profiles aggregate.
	OldRuns int `json:"old_runs"`
	NewRuns int `json:"new_runs"`
	// Deltas holds sites present in both profiles with at least one
	// classified metric; NewSites and GoneSites the sites only one
	// profile has, as that profile holds them: summed over its runs.
	Deltas    []SiteDelta     `json:"deltas"`
	NewSites  []trace.SiteRow `json:"new_sites"`
	GoneSites []trace.SiteRow `json:"gone_sites"`
	// BlockedShare compares the machine-wide blocked fraction.
	BlockedShare MetricDelta `json:"blocked_share"`
}

// Regressions returns every site delta carrying a regression; a
// machine-wide blocked-share regression is reported by the
// BlockedShare field's Class.
func (c *Comparison) Regressions() []SiteDelta {
	var out []SiteDelta
	for _, d := range c.Deltas {
		if d.Regressed() {
			out = append(out, d)
		}
	}
	return out
}

// Regressed reports whether the comparison found any regression,
// per-site or machine-wide.
func (c *Comparison) Regressed() bool {
	return len(c.Regressions()) > 0 || c.BlockedShare.Class == "regression"
}

// Diff compares two profiles site by site. Extensive metrics are
// normalized to per-run means first, so profiles aggregating different
// run counts compare fairly.
func Diff(old, new *Profile, t Thresholds) *Comparison {
	c := &Comparison{OldMeta: old.Meta, NewMeta: new.Meta, OldRuns: old.Runs, NewRuns: new.Runs}
	oldSites := map[trace.SiteKey]trace.SiteRow{}
	for _, s := range old.Sites {
		oldSites[s.SiteKey] = s
	}
	newSites := map[trace.SiteKey]bool{}
	for _, s := range new.Sites {
		newSites[s.SiteKey] = true
	}
	for _, ns := range new.Sites {
		os, ok := oldSites[ns.SiteKey]
		if !ok {
			c.NewSites = append(c.NewSites, ns)
			continue
		}
		d := SiteDelta{SiteKey: ns.SiteKey}
		or, nr := float64(old.Runs), float64(new.Runs)
		d.Metrics = append(d.Metrics,
			classify("msgs", float64(os.Msgs)/or, float64(ns.Msgs)/nr, t.Msgs),
			classify("words", float64(os.Words)/or, float64(ns.Words)/nr, t.Words),
			classify("send_us", os.Send/or, ns.Send/nr, t.Send),
			classify("blocked_us", os.Blocked/or, ns.Blocked/nr, t.Blocked),
		)
		c.Deltas = append(c.Deltas, d)
	}
	for _, os := range old.Sites {
		if !newSites[os.SiteKey] {
			c.GoneSites = append(c.GoneSites, os)
		}
	}
	sort.Slice(c.Deltas, func(i, j int) bool { return c.Deltas[i].Less(c.Deltas[j].SiteKey) })
	c.BlockedShare = classify("blocked_share", old.BlockedShare(), new.BlockedShare(), t.Blocked)
	return c
}

// classify builds one metric delta. A negative threshold disables
// classification.
func classify(name string, old, new, threshold float64) MetricDelta {
	m := MetricDelta{Name: name, Old: old, New: new}
	switch {
	case old == new:
		return m
	case old == 0:
		if new > 0 {
			m.Pct = 1
		} else {
			m.Pct = -1
		}
	default:
		m.Pct = (new - old) / old
	}
	if threshold < 0 {
		return m
	}
	// lower is better for every profile metric
	if m.Pct > threshold {
		m.Class = "regression"
	} else if m.Pct < -threshold {
		m.Class = "improvement"
	}
	return m
}

// WriteText renders the comparison as a fixed-width table: one row per
// classified metric, plus appearing/vanishing sites and the
// machine-wide blocked share.
func (c *Comparison) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-22s %-10s %-13s %14s %14s %9s\n",
		"site", "op", "metric", "old/run", "new/run", "delta"); err != nil {
		return err
	}
	row := func(site, op string, m MetricDelta) {
		class := m.Class
		if class == "" {
			class = "ok"
		}
		fmt.Fprintf(w, "%-22s %-10s %-13s %14.2f %14.2f %+8.1f%%  %s\n",
			site, op, m.Name, m.Old, m.New, 100*m.Pct, class)
	}
	for _, d := range c.Deltas {
		for _, m := range d.Metrics {
			if m.Class != "" {
				row(d.Site(), d.Op, m)
			}
		}
	}
	for _, s := range c.NewSites {
		runs := float64(c.NewRuns)
		fmt.Fprintf(w, "%-22s %-10s new site: %.0f msgs, %.1fµs cost/run\n",
			s.Site(), s.Op, float64(s.Msgs)/runs, s.Cost()/runs)
	}
	for _, s := range c.GoneSites {
		runs := float64(c.OldRuns)
		fmt.Fprintf(w, "%-22s %-10s site gone (was %.0f msgs, %.1fµs cost/run)\n",
			s.Site(), s.Op, float64(s.Msgs)/runs, s.Cost()/runs)
	}
	row("(machine-wide)", "-", c.BlockedShare)
	return nil
}
