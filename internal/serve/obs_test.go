package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/gpm-sim/gpm/internal/obs"
	"github.com/gpm-sim/gpm/internal/telemetry"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// Every batched request trace must tell a coherent pipeline story: the six
// stages in order, offsets non-decreasing, riding a real epoch. With
// SampleEvery=1 every request is captured, so the trace count must match
// the op count exactly.
func TestRequestTracesThroughPipeline(t *testing.T) {
	tracer := obs.NewRequestTracer(1, time.Hour, 64)
	tel := telemetry.New()
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 2, Sets: 64, MaxBatch: 16,
		BatchWait: 200 * time.Microsecond, Telemetry: tel,
		Trace: tracer,
	})
	br, c := dial(t, addr)
	defer c.Close()

	reqs := []string{"SET 1 100", "SET 2 200", "GET 1", "GET 9", "DEL 2"}
	for _, req := range reqs {
		roundTrip(t, c, br, req)
	}
	c.Close()
	srv.Shutdown(5 * time.Second)

	traces := tracer.Last(0)
	if len(traces) != len(reqs) {
		t.Fatalf("%d traces for %d requests at SampleEvery=1", len(traces), len(reqs))
	}
	wantStages := []string{"admit", "seal", "stage", "kernel", "persist", "commit"}
	for _, tr := range traces {
		if tr.Reason != obs.ReasonHead {
			t.Errorf("trace %d reason %q, want head", tr.ID, tr.Reason)
		}
		if tr.Op == "" || tr.Key == 0 || tr.ID == 0 {
			t.Errorf("trace missing identity: %+v", tr)
		}
		if len(tr.Stages) != len(wantStages) {
			t.Fatalf("trace %d has %d stages %v, want %v", tr.ID, len(tr.Stages), tr.Stages, wantStages)
		}
		prev := 0.0
		for i, sp := range tr.Stages {
			if sp.Stage != wantStages[i] {
				t.Errorf("trace %d stage %d = %q, want %q", tr.ID, i, sp.Stage, wantStages[i])
			}
			if sp.OffsetUS < prev {
				t.Errorf("trace %d stage %q offset %g regresses below %g", tr.ID, sp.Stage, sp.OffsetUS, prev)
			}
			prev = sp.OffsetUS
		}
		if tr.TotalUS != tr.Stages[len(tr.Stages)-1].OffsetUS {
			t.Errorf("trace %d total %g != final stage offset %g",
				tr.ID, tr.TotalUS, tr.Stages[len(tr.Stages)-1].OffsetUS)
		}
	}
}

// A GET answered from the hot-key cache gets the short two-stage trace
// instead of the pipeline's six.
func TestRequestTraceCacheHit(t *testing.T) {
	tracer := obs.NewRequestTracer(1, time.Hour, 64)
	srv, addr := startServer(t, Config{
		Mode: workloads.GPM, Shards: 1, Sets: 64, MaxBatch: 8,
		BatchWait: 100 * time.Microsecond,
		Telemetry: telemetry.New(), Trace: tracer,
	})
	br, c := dial(t, addr)
	defer c.Close()

	roundTrip(t, c, br, "SET 5 50")
	// Repeated GETs heat the key: once it is hot, GETs are answered from the
	// committed image with no epoch.
	for i := 0; i < 6; i++ {
		if got := roundTrip(t, c, br, "GET 5"); got != "VALUE 50" {
			t.Fatalf("GET 5 -> %q", got)
		}
	}
	c.Close()
	srv.Shutdown(5 * time.Second)

	var cacheTraces int
	for _, tr := range tracer.Last(0) {
		if len(tr.Stages) == 2 && tr.Stages[1].Stage == "cache-reply" {
			cacheTraces++
			if tr.Epoch != 0 {
				t.Errorf("cache-hit trace claims epoch %d", tr.Epoch)
			}
		}
	}
	if cacheTraces == 0 {
		t.Error("no cache-hit traces captured (cache never hit?)")
	}
}

// The ObsPlane composes against a real server: statusz document fields,
// nil-safety of a skipped plane, and teardown.
func TestObsPlaneLifecycle(t *testing.T) {
	plane, err := NewObsPlane(ObsConfig{AdminAddr: "127.0.0.1:0", Tick: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Mode: workloads.GPM, Shards: 2, Sets: 64, MaxBatch: 8,
		Telemetry: telemetry.New(),
	}
	plane.Apply(&cfg)
	if cfg.Trace == nil || cfg.Audit == nil {
		t.Fatal("Apply did not install tracer/audit")
	}
	srv, addr := startServer(t, cfg)
	adminAddr, err := plane.Start(srv)
	if err != nil {
		t.Fatal(err)
	}
	if adminAddr == "" {
		t.Fatal("admin address empty")
	}
	br, c := dial(t, addr)
	for i := 1; i <= 8; i++ {
		roundTrip(t, c, br, fmt.Sprintf("SET %d %d", i, i*10))
	}
	c.Close()

	doc := plane.StatusDoc(srv)
	if doc.Shards != 2 || len(doc.ShardRows) != 2 || doc.UptimeS <= 0 {
		t.Errorf("status doc = %+v", doc)
	}
	if doc.GoVersion == "" || doc.OSArch == "" || doc.Mode != "GPM" {
		t.Errorf("build info missing: %+v", doc)
	}
	var ops int64
	for _, row := range doc.ShardRows {
		ops += row.Ops
	}
	if ops != 8 {
		t.Errorf("status rows total %d ops, want 8", ops)
	}
	// The admin surface answers with well-formed, non-trivial documents
	// while the server runs.
	get := func(path string) string {
		resp, err := http.Get("http://" + adminAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s -> %d (%v): %s", path, resp.StatusCode, err, body)
		}
		return string(body)
	}
	if body := get("/healthz"); strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz said %q, want ok", body)
	}
	if body := get("/metrics"); !strings.Contains(body, "serve_shard0_ops") {
		t.Errorf("/metrics missing serve_shard0_ops:\n%.500s", body)
	}
	var live StatusDoc
	if err := json.Unmarshal([]byte(get("/statusz")), &live); err != nil {
		t.Errorf("/statusz not JSON: %v", err)
	} else if live.Shards != 2 || len(live.ShardRows) != 2 {
		t.Errorf("/statusz reports %d/%d shards, want 2", live.Shards, len(live.ShardRows))
	}
	get("/debug/trace?n=4")
	srv.Shutdown(5 * time.Second)
	plane.Stop()

	var nilPlane *ObsPlane
	nilPlane.Apply(&cfg)
	if _, err := nilPlane.Start(srv); err != nil {
		t.Error("nil plane Start must be a no-op")
	}
	nilPlane.Stop()
}

// Chrome-trace export of captured wall traces lands on its own process
// lane with one span per stage.
func TestExportWallSpans(t *testing.T) {
	plane, err := NewObsPlane(ObsConfig{SampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	zero := time.Now()
	plane.Tracer.Add(obs.ReqTrace{
		ID: 1, Shard: 0, Op: "SET", Start: zero.Add(time.Millisecond),
		Stages: []obs.StagePoint{{Stage: "admit", OffsetUS: 5}, {Stage: "commit", OffsetUS: 50}},
	})
	tel := telemetry.New()
	plane.ExportWallSpans(tel, zero)
	spans := tel.Tracer().Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	if tel.Tracer().ProcessLabel(spans[0].PID) != "serve/requests(wall)" {
		t.Errorf("process label = %q", tel.Tracer().ProcessLabel(spans[0].PID))
	}
}
