package main

import (
	"strings"
	"testing"
	"time"
)

// okOptions is a baseline that must validate; each case mutates one field.
func okOptions() cliOptions {
	return cliOptions{
		addr: "127.0.0.1:7070", mode: "GPM",
		shards: 2, sets: 64, batch: 16,
		batchWait: time.Millisecond, drain: time.Second,
	}
}

func TestValidateCLI(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*cliOptions)
		wantErr string // empty = valid
	}{
		{"baseline", func(o *cliOptions) {}, ""},
		{"empty addr", func(o *cliOptions) { o.addr = "" }, "-addr"},
		{"unknown mode", func(o *cliOptions) { o.mode = "bogus" }, "unsupported mode"},
		{"unservable mode", func(o *cliOptions) { o.mode = "GPUfs" }, "unsupported mode"},
		{"zero shards", func(o *cliOptions) { o.shards = 0 }, "-shards"},
		{"zero sets", func(o *cliOptions) { o.sets = 0 }, "-sets"},
		{"zero batch", func(o *cliOptions) { o.batch = 0 }, "-batch"},
		{"negative wait", func(o *cliOptions) { o.batchWait = -time.Second }, "-batch-wait"},
		{"zero drain", func(o *cliOptions) { o.drain = 0 }, "-drain-timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := okOptions()
			tc.mutate(&o)
			err := validateCLI(o)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateCLI: %v, want ok", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validateCLI = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}
