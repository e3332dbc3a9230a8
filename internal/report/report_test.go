package report

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"fortd"
)

// TestReportHTML renders the full self-contained report for jacobi and
// dgefa and checks that every visualization the report promises is
// present and that the document references no external assets.
func TestReportHTML(t *testing.T) {
	cases := []struct {
		name string
		src  string
		init map[string][]float64
	}{
		{"jacobi", fortd.Jacobi2DSrc(16, 3, 4), map[string][]float64{"a": fortd.Ramp(16 * 16)}},
		{"dgefa", fortd.DgefaSrc(32, 4), map[string][]float64{"a": fortd.DgefaMatrix(32)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sec, err := BuildSection(context.Background(), tc.name, tc.src, tc.init, fortd.DefaultOptions(), []int{1, 2, 4}, 0)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Write(&buf, tc.name, "", sec); err != nil {
				t.Fatal(err)
			}
			html := buf.String()
			for _, id := range []string{
				`id="heatmap"`, `id="hotspots"`, `id="timeline"`,
				`id="profile"`, `id="histogram"`, `id="speedup"`,
			} {
				if !strings.Contains(html, id) {
					t.Errorf("report lacks %s", id)
				}
			}
			for _, ext := range []string{"http://", "https://", "<script src", "<link "} {
				if strings.Contains(html, ext) {
					t.Errorf("report references an external asset (%q)", ext)
				}
			}
			if !strings.HasPrefix(html, "<!DOCTYPE html>") {
				t.Error("report does not start with a doctype")
			}
			if !strings.HasSuffix(strings.TrimSpace(html), "</html>") {
				t.Error("report is truncated (no closing </html>)")
			}
		})
	}
}

// TestParseSweep covers the flag syntax: dedup, sort, rejection.
func TestParseSweep(t *testing.T) {
	got, err := ParseSweep(" 8, 1,2, 4,2 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("ParseSweep = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseSweep = %v, want %v", got, want)
		}
	}
	if got, err := ParseSweep(""); err != nil || got != nil {
		t.Errorf("ParseSweep(\"\") = %v, %v; want nil, nil", got, err)
	}
	for _, bad := range []string{"0", "-1", "x", "1,,2"} {
		if _, err := ParseSweep(bad); err == nil {
			t.Errorf("ParseSweep(%q) accepted", bad)
		}
	}
}
