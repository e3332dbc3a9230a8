package fortd

import (
	"strings"
	"testing"
	"time"
)

// TestServiceConfigValidate covers the service-level combinations.
// (Options.Validate itself is covered by TestOptionsValidate in
// trace_test.go; the zero value must also round-trip here because
// ServiceConfig{} is the documented "all defaults" configuration.)
func TestServiceConfigValidate(t *testing.T) {
	if err := (ServiceConfig{}).Validate(); err != nil {
		t.Fatalf("zero ServiceConfig.Validate() = %v", err)
	}
	cases := []struct {
		name string
		cfg  ServiceConfig
		want string
	}{
		{"invalid base options", ServiceConfig{Options: Options{Jobs: -1}}, "Options.Jobs"},
		{"options carry cache", ServiceConfig{Options: Options{Cache: NewSummaryCache()}}, "must not carry a cache"},
		{"options carry cache dir", ServiceConfig{Options: Options{Cache: mustDisk(NewDiskSummaryCache(t.TempDir()))}}, "must not carry a cache"},
		{"options carry trace", ServiceConfig{Options: Options{Trace: NewTrace()}}, "Trace"},
		{"options carry explain", ServiceConfig{Options: Options{Explain: NewExplain()}}, "Explain"},
		{"negative workers", ServiceConfig{Workers: -1}, "Workers"},
		{"negative queue", ServiceConfig{QueueDepth: -1}, "QueueDepth"},
		{"negative rate", ServiceConfig{RateLimit: -1}, "RateLimit"},
		{"negative burst", ServiceConfig{RateLimit: 1, RateBurst: -1}, "RateBurst"},
		{"burst without rate", ServiceConfig{RateBurst: 5}, "without RateLimit"},
		{"negative run deadline", ServiceConfig{RunDeadline: -time.Second}, "RunDeadline"},
		{"negative max programs", ServiceConfig{MaxPrograms: -1}, "MaxPrograms"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if err == nil {
				t.Fatalf("Validate() = nil, want error mentioning %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate() = %v, want error mentioning %q", err, c.want)
			}
			if _, serr := NewService(c.cfg); serr == nil {
				t.Fatalf("NewService accepted invalid config %+v", c.cfg)
			}
		})
	}
}
