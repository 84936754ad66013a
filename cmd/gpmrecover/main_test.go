package main

import (
	"strings"
	"testing"

	"github.com/gpm-sim/gpm/internal/crash"
)

// base returns a valid option set; cases mutate one field at a time.
func base() cliOptions {
	return cliOptions{points: 4, workers: 2, crashAt: -1}
}

// Flag validation must reject values that previously fell back to defaults
// silently — most importantly an unknown -faultmodel.
func TestValidateCLI(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*cliOptions)
		wantErr string // "" = valid
	}{
		{"defaults", func(o *cliOptions) {}, ""},
		{"sweep with models", func(o *cliOptions) { o.models = "torn-lines,reorder" }, ""},
		{"replay", func(o *cliOptions) { o.crashAt = 100; o.mode = "GPM"; o.models = "torn-words" }, ""},
		{"workers zero", func(o *cliOptions) { o.workers = 0 }, "-workers"},
		{"workers negative", func(o *cliOptions) { o.workers = -1 }, "-workers"},
		{"workers absurd", func(o *cliOptions) { o.workers = 1 << 20 }, "-workers"},
		{"workers at cap", func(o *cliOptions) { o.workers = crash.MaxWorkers }, ""},
		{"maxpoints zero", func(o *cliOptions) { o.points = 0 }, "-maxpoints"},
		{"negative stride", func(o *cliOptions) { o.stride = -5 }, "-stride"},
		{"negative depth", func(o *cliOptions) { o.depth = -1 }, "-recrash-depth"},
		{"negative every", func(o *cliOptions) { o.every = -1 }, "-recrash-every"},
		{"negative faultlimit", func(o *cliOptions) { o.faultLim = -2 }, "-faultlimit"},
		{"unknown model in sweep", func(o *cliOptions) { o.models = "torn-pages" }, "-faultmodel"},
		{"mode without replay", func(o *cliOptions) { o.mode = "GPM" }, "-mode"},
		{"unknown mode in replay", func(o *cliOptions) { o.crashAt = 5; o.mode = "TURBO" }, "unknown mode"},
		{"model list in replay", func(o *cliOptions) { o.crashAt = 5; o.models = "clean,reorder" }, "exactly one"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := base()
			c.mutate(&o)
			err := validateCLI(o)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("validateCLI(%+v) = %v, want nil", o, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateCLI(%+v) = nil, want error containing %q", o, c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// The unknown-model error must list valid model names so the usage message
// is actionable.
func TestValidateCLIListsModels(t *testing.T) {
	o := base()
	o.models = "nope"
	err := validateCLI(o)
	if err == nil {
		t.Fatal("want error")
	}
	for _, name := range []string{"clean", "torn-lines", "torn-words", "reorder"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q should list model %q", err, name)
		}
	}
}
