package main

import (
	"strings"
	"testing"
	"time"

	"github.com/gpm-sim/gpm/internal/workloads"
)

// okOptions is a baseline that must validate; each case mutates one field.
func okOptions() cliOptions {
	return cliOptions{
		addr: "127.0.0.1:7070", mode: "GPM",
		shards: 2, sets: 64, batch: 16, queue: 64, hotKeys: 128,
		workers: 0, capThreads: 16,
		ops: 100, batchWait: time.Millisecond, drain: time.Second,
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
		{"zero queue", func(o *cliOptions) { o.queue = 0 }, "-queue"},
		{"negative workers", func(o *cliOptions) { o.workers = -1 }, "-workers"},
		{"zero capthreads", func(o *cliOptions) { o.capThreads = 0 }, "-capthreads"},
		{"zero drain", func(o *cliOptions) { o.drain = 0 }, "-drain-timeout"},
		{"zero ops", func(o *cliOptions) { o.ops = 0 }, "-ops"},
		{"zero hotkeys", func(o *cliOptions) { o.hotKeys = 0 }, "-hotkeys"},
		{"modes without selftest", func(o *cliOptions) { o.modes = "GPM" }, "-modes only applies"},
		{"shard-counts without selftest", func(o *cliOptions) { o.shardCounts = "1,2" }, "-shard-counts only applies"},
		{"selftest with modes", func(o *cliOptions) { o.selftest = true; o.modes = "GPM,CAP-fs" }, ""},
		{"selftest bad mode list", func(o *cliOptions) { o.selftest = true; o.modes = "GPM,nope" }, "-modes"},
		{"selftest bad counts", func(o *cliOptions) { o.selftest = true; o.shardCounts = "2,0" }, "-shard-counts"},
		{"selftest counts junk", func(o *cliOptions) { o.selftest = true; o.shardCounts = "two" }, "-shard-counts"},
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

func TestParseModes(t *testing.T) {
	modes, err := parseModes(" GPM , CAP-fs ")
	if err != nil {
		t.Fatal(err)
	}
	want := []workloads.Mode{workloads.GPM, workloads.CAPfs}
	if len(modes) != 2 || modes[0] != want[0] || modes[1] != want[1] {
		t.Fatalf("parseModes = %v, want %v", modes, want)
	}
	if m, err := parseModes(""); err != nil || m != nil {
		t.Fatalf("empty spec = %v, %v; want nil, nil", m, err)
	}
	if _, err := parseModes("GPUfs"); err == nil {
		t.Fatal("GPUfs should be rejected as unservable")
	}
}

func TestParseShardCounts(t *testing.T) {
	counts, err := parseShardCounts("1, 2,8")
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 3 || counts[0] != 1 || counts[1] != 2 || counts[2] != 8 {
		t.Fatalf("parseShardCounts = %v, want [1 2 8]", counts)
	}
	for _, bad := range []string{"0", "-1", "x", "2,,4"} {
		if _, err := parseShardCounts(bad); err == nil {
			t.Errorf("parseShardCounts(%q) should fail", bad)
		}
	}
}
