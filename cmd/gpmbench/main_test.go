package main

import (
	"strings"
	"testing"

	"github.com/gpm-sim/gpm/internal/workloads"
)

// Flag validation must reject values that previously fell through to
// defaults silently: unknown -experiment names.
func TestValidateFlags(t *testing.T) {
	known := make([]string, 0, 16)
	for n := range experimentRunners(workloads.QuickConfig()) {
		known = append(known, n)
	}
	cases := []struct {
		name       string
		experiment string
		wantErr    string // "" = valid
	}{
		{"all experiments", "all", ""},
		{"known experiment", "figure9", ""},
		{"another known experiment", "table5", ""},
		{"unknown experiment", "figure99", "unknown experiment"},
		{"empty experiment", "", "unknown experiment"},
		{"case sensitive", "Figure9", "unknown experiment"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(c.experiment, known)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags(%q) = %v, want nil", c.experiment, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateFlags(%q) = nil, want error containing %q", c.experiment, c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// The unknown-experiment message must list the valid names so the usage is
// actionable.
func TestValidateFlagsListsExperiments(t *testing.T) {
	err := validateFlags("bogus", []string{"figure9", "table5"})
	if err == nil {
		t.Fatal("want error")
	}
	for _, n := range []string{"figure9", "table5", "all"} {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("error %q should list %q", err, n)
		}
	}
}
