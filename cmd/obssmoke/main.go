// Command obssmoke is the end-to-end observability smoke test (make
// obs-smoke): it builds gpmserve and gpmload, starts a real gpmserve
// process with the admin endpoint, audit trail, and metrics flush enabled,
// drives pipelined load and then RMW transactions over TCP through the
// gpmload binary (-json), plus multi-key transactions through the client
// package (including a deliberate write-write conflict), asserts the admin
// surfaces (/healthz, /metrics, /statusz with its txn section,
// /debug/trace) are well-formed and show the load, then SIGTERMs the
// server and checks the drain left a metrics snapshot and a parseable
// audit trail on disk.
//
//	obssmoke            # defaults: 2 shards, 5000 ops
//	obssmoke -ops 20000 -shards 4
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/gpm-sim/gpm/internal/obs"
	"github.com/gpm-sim/gpm/internal/serve"
	"github.com/gpm-sim/gpm/internal/serve/client"
)

func main() {
	ops := flag.Int64("ops", 5000, "client operations to drive through the server")
	shards := flag.Int("shards", 2, "server shards")
	flag.Parse()
	if err := run(*ops, *shards); err != nil {
		fmt.Fprintln(os.Stderr, "obssmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("obssmoke: ok")
}

var (
	listenRE = regexp.MustCompile(`listening on (\S+)`)
	adminRE  = regexp.MustCompile(`admin endpoint on http://(\S+)`)
)

func run(ops int64, shards int) error {
	tmp, err := os.MkdirTemp("", "obssmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	for _, name := range []string{"gpmserve", "gpmload"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(tmp, name), "./cmd/"+name).CombinedOutput(); err != nil {
			return fmt.Errorf("build %s: %v\n%s", name, err, out)
		}
	}
	bin, loadBin := filepath.Join(tmp, "gpmserve"), filepath.Join(tmp, "gpmload")

	metricsPath := filepath.Join(tmp, "metrics.tsv")
	auditPath := filepath.Join(tmp, "audit.jsonl")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0",
		"-shards", strconv.Itoa(shards),
		"-metrics", metricsPath, "-audit", auditPath)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start gpmserve: %w", err)
	}
	defer cmd.Process.Kill() // no-op if the graceful path already reaped it

	// Scrape the serving and admin addresses from the server's own startup
	// lines (both listeners bind :0), echoing them for CI logs.
	addrCh, adminCh := make(chan string, 1), make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(os.Stderr, "  [gpmserve]", line)
			if m := listenRE.FindStringSubmatch(line); m != nil {
				addrCh <- m[1]
			}
			if m := adminRE.FindStringSubmatch(line); m != nil {
				adminCh <- m[1]
			}
		}
	}()
	var addr, admin string
	for addr == "" || admin == "" {
		select {
		case addr = <-addrCh:
		case admin = <-adminCh:
		case <-time.After(15 * time.Second):
			return fmt.Errorf("server did not announce addresses (serve=%q admin=%q)", addr, admin)
		}
	}

	// Healthy before any load.
	if code, body, err := get("http://" + admin + "/healthz"); err != nil || code != 200 || !strings.Contains(string(body), "ok") {
		return fmt.Errorf("/healthz = %d %q (%v), want 200 ok", code, body, err)
	}

	load, err := runLoad(loadBin, addr, "-ops", strconv.FormatInt(ops, 10), "-conns", "4", "-window", "16")
	if err != nil {
		return err
	}
	if load.Ops+load.GaveUp != ops || load.GaveUp > 0 || load.Errors > 0 {
		return fmt.Errorf("gpmload resolved %d/%d ops, %d given up, %d errors", load.Ops, ops, load.GaveUp, load.Errors)
	}
	fmt.Printf("load: %d ops, %.0f ops/s, p99 %.0fµs\n", load.Ops, load.Throughput, load.P99US)

	txns := max(ops/25, 1)
	tload, err := runLoad(loadBin, addr, "-txn", "-ops", strconv.FormatInt(txns, 10), "-conns", "4")
	if err != nil {
		return err
	}
	t := tload.Txn
	if t == nil {
		return fmt.Errorf("gpmload -txn reported no transaction section")
	}
	if t.Txns+t.AbortedForGood+t.GaveUp != txns || t.GaveUp > 0 || t.Errors > 0 || t.ReadAnomalies > 0 {
		return fmt.Errorf("gpmload -txn resolved %d committed + %d dropped of %d, %d unknown, %d errors, %d read anomalies",
			t.Txns, t.AbortedForGood, txns, t.GaveUp, t.Errors, t.ReadAnomalies)
	}
	fmt.Printf("txn load: %d committed, %d conflict aborts, %.0f txns/s\n", t.Txns, t.Aborts, t.Throughput)

	commits, aborts, err := exerciseTxns(addr)
	if err != nil {
		return fmt.Errorf("txn exercise: %w", err)
	}
	fmt.Printf("txns: %d committed, %d conflict-aborted over protocol v2\n", commits, aborts)
	commits += t.Txns
	aborts += t.Aborts

	if err := checkMetrics(admin, ops+commits); err != nil {
		return err
	}
	if err := checkStatusz(admin, shards, ops, commits, aborts); err != nil {
		return err
	}
	if err := checkTraces(admin); err != nil {
		return err
	}

	// Graceful SIGTERM drain: exit 0, metrics snapshot on disk, audit trail
	// recording the drain.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("gpmserve exit after SIGTERM: %w", err)
		}
	case <-time.After(30 * time.Second):
		return fmt.Errorf("gpmserve did not exit within 30s of SIGTERM")
	}

	mblob, err := os.ReadFile(metricsPath)
	if err != nil {
		return fmt.Errorf("metrics file after drain: %w", err)
	}
	if !bytes.Contains(mblob, []byte("serve.shard0.ops")) {
		return fmt.Errorf("metrics file missing serve.shard0.ops:\n%s", mblob)
	}
	ablob, err := os.ReadFile(auditPath)
	if err != nil {
		return fmt.Errorf("audit file after drain: %w", err)
	}
	drains := 0
	for _, line := range bytes.Split(bytes.TrimSpace(ablob), []byte("\n")) {
		var ev obs.AuditEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("audit line %q: %w", line, err)
		}
		if ev.Type == obs.AuditDrain {
			drains++
		}
	}
	if drains == 0 {
		return fmt.Errorf("audit trail has no drain event:\n%s", ablob)
	}
	fmt.Printf("drain: clean exit, metrics snapshot + %d-line audit trail\n",
		bytes.Count(bytes.TrimSpace(ablob), []byte("\n"))+1)
	return nil
}

// runLoad drives the server through the gpmload binary and decodes its
// -json result; gpmload exits non-zero on any ERR reply or read anomaly.
func runLoad(bin, addr string, args ...string) (*serve.LoadResult, error) {
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-json"}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("gpmload %s: %w", strings.Join(args, " "), err)
	}
	var res serve.LoadResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("gpmload %s output: %w\n%s", strings.Join(args, " "), err, out)
	}
	return &res, nil
}

// exerciseTxns drives multi-key transactions through the first-class
// client package against the live server: read-modify-write increments
// that must commit, then a deliberate write-write conflict whose loser
// must abort with the conflicting key named. Keys sit far above the plain
// loads' keyspaces so the workloads never share dedup or slot state.
func exerciseTxns(addr string) (commits, aborts int64, err error) {
	cl, err := client.Dial(client.Config{
		Addr: addr, Timeout: 10 * time.Second,
		Proto:    client.MaxProto,
		Reliable: true, CID: 9001,
	})
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	if cl.Proto() != 2 {
		return 0, 0, fmt.Errorf("negotiated protocol v%d, want v2", cl.Proto())
	}
	// A transaction's write set must stay on one shard: step keys by the
	// negotiated shard count so they agree mod shards.
	const base = uint64(1) << 21
	stride := uint64(cl.Shards())
	for i := uint64(0); i < 3; i++ {
		txn, err := cl.Begin()
		if err != nil {
			return commits, aborts, err
		}
		for _, k := range []uint64{base, base + stride} {
			v, _, err := txn.Get(k)
			if err != nil {
				return commits, aborts, fmt.Errorf("txn get %d: %w", k, err)
			}
			txn.Set(k, v+1)
		}
		res, err := txn.Commit()
		if err != nil {
			return commits, aborts, fmt.Errorf("txn commit: %w", err)
		}
		if !res.Committed {
			return commits, aborts, fmt.Errorf("uncontended transaction %d aborted on key %d", i, res.ConflictKey)
		}
		commits++
	}
	// Write-write conflict: t2's snapshot predates t1's commit, so t2's
	// write on the shared key must lose commit-window validation.
	t1, err := cl.Begin()
	if err != nil {
		return commits, aborts, err
	}
	t2, err := cl.Begin()
	if err != nil {
		return commits, aborts, err
	}
	t1.Set(base, 100)
	if res, err := t1.Commit(); err != nil || !res.Committed {
		return commits, aborts, fmt.Errorf("conflict winner: committed=%v err=%v", res.Committed, err)
	}
	commits++
	t2.Set(base, 200)
	res, err := t2.Commit()
	if err != nil {
		return commits, aborts, fmt.Errorf("conflict loser commit: %w", err)
	}
	if res.Committed {
		return commits, aborts, fmt.Errorf("conflicting transaction committed — write-write conflict not detected")
	}
	if res.ConflictKey != base {
		return commits, aborts, fmt.Errorf("abort named key %d, conflict was on %d", res.ConflictKey, base)
	}
	aborts++
	return commits, aborts, nil
}

// checkMetrics asserts /metrics renders Prometheus text whose shard-0 ops
// counter accounts for a plausible share of the driven load (plain ops
// plus committed transactions, which ride epochs as ops).
func checkMetrics(admin string, ops int64) error {
	code, body, err := get("http://" + admin + "/metrics")
	if err != nil || code != 200 {
		return fmt.Errorf("/metrics = %d (%v)", code, err)
	}
	re := regexp.MustCompile(`(?m)^serve_shard0_ops (\d+)`)
	m := re.FindSubmatch(body)
	if m == nil {
		return fmt.Errorf("/metrics missing serve_shard0_ops:\n%.2000s", body)
	}
	n, _ := strconv.ParseInt(string(m[1]), 10, 64)
	if n < 1 || n > ops {
		return fmt.Errorf("serve_shard0_ops = %d, want within [1, %d]", n, ops)
	}
	fmt.Printf("/metrics: ok (shard0 ops %d)\n", n)
	return nil
}

// checkStatusz asserts the /statusz JSON document is well-formed, its
// per-shard rows account for every driven op (transactions ride separate
// counters), and the txn section shows the transactions just driven.
func checkStatusz(admin string, shards int, ops, txnCommits, txnAborts int64) error {
	code, body, err := get("http://" + admin + "/statusz")
	if err != nil || code != 200 {
		return fmt.Errorf("/statusz = %d (%v)", code, err)
	}
	var doc struct {
		UptimeS   float64 `json:"uptime_s"`
		Shards    int     `json:"shards"`
		Draining  bool    `json:"draining"`
		Windows   []any   `json:"windows"`
		ShardRows []struct {
			Ops        int64 `json:"ops"`
			CacheHits  int64 `json:"cache_hits"`
			TxnCommits int64 `json:"txn_commits"`
			TxnAborts  int64 `json:"txn_aborts"`
		} `json:"shard_status"`
		Txn struct {
			ActiveSnapshots int      `json:"active_snapshots"`
			OracleTS        uint64   `json:"oracle_ts"`
			StableFloor     uint64   `json:"stable_floor"`
			MVCCFloors      []uint64 `json:"mvcc_floor_by_shard"`
			MVCCRows        []int    `json:"mvcc_rows_by_shard"`
		} `json:"txn"`
		Traces struct {
			Captured int64 `json:"captured"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("/statusz parse: %w\n%.2000s", err, body)
	}
	// Batched ops plus hot-key cache hits (answered at admission, so they
	// never reach the shard op counters) must account for every driven op.
	// Transaction commits ride the same epochs but tally separately.
	var rowOps, rowCommits, rowAborts int64
	for _, r := range doc.ShardRows {
		rowOps += r.Ops + r.CacheHits
		rowCommits += r.TxnCommits
		rowAborts += r.TxnAborts
	}
	rowOps -= rowCommits // committed txns ride epochs, so they count as ops
	switch {
	case doc.Shards != shards || len(doc.ShardRows) != shards:
		return fmt.Errorf("/statusz shards = %d with %d rows, want %d", doc.Shards, len(doc.ShardRows), shards)
	case doc.UptimeS <= 0 || doc.Draining:
		return fmt.Errorf("/statusz uptime %.3fs draining %v", doc.UptimeS, doc.Draining)
	case rowOps != ops:
		return fmt.Errorf("/statusz shard rows account for %d ops, want %d", rowOps, ops)
	case len(doc.Windows) == 0:
		return fmt.Errorf("/statusz has no rolling windows")
	case doc.Traces.Captured < 1:
		return fmt.Errorf("/statusz shows no captured traces")
	case rowCommits != txnCommits || rowAborts != txnAborts:
		return fmt.Errorf("/statusz txn rows show %d commits / %d aborts, drove %d / %d",
			rowCommits, rowAborts, txnCommits, txnAborts)
	case doc.Txn.OracleTS == 0 || doc.Txn.StableFloor > doc.Txn.OracleTS:
		return fmt.Errorf("/statusz txn oracle ts %d, stable floor %d — not a monotone oracle",
			doc.Txn.OracleTS, doc.Txn.StableFloor)
	case doc.Txn.ActiveSnapshots != 0:
		return fmt.Errorf("/statusz shows %d active snapshots after all txns resolved", doc.Txn.ActiveSnapshots)
	case len(doc.Txn.MVCCFloors) != shards:
		return fmt.Errorf("/statusz mvcc floors cover %d shards, want %d", len(doc.Txn.MVCCFloors), shards)
	case len(doc.Txn.MVCCRows) != shards:
		return fmt.Errorf("/statusz mvcc rows cover %d shards, want %d", len(doc.Txn.MVCCRows), shards)
	}
	fmt.Printf("/statusz: ok (%d shards, %d ops, %d txn commits / %d aborts, oracle ts %d, %d traces)\n",
		doc.Shards, rowOps, rowCommits, rowAborts, doc.Txn.OracleTS, doc.Traces.Captured)
	return nil
}

// checkTraces asserts /debug/trace returns a JSON array of sampled request
// traces with staged timelines.
func checkTraces(admin string) error {
	code, body, err := get("http://" + admin + "/debug/trace?n=8")
	if err != nil || code != 200 {
		return fmt.Errorf("/debug/trace = %d (%v)", code, err)
	}
	var traces []obs.ReqTrace
	if err := json.Unmarshal(body, &traces); err != nil {
		return fmt.Errorf("/debug/trace parse: %w\n%.2000s", err, body)
	}
	if len(traces) == 0 {
		return fmt.Errorf("/debug/trace returned no traces")
	}
	for _, tr := range traces {
		if tr.ID == 0 || len(tr.Stages) == 0 {
			return fmt.Errorf("/debug/trace has a malformed trace: %+v", tr)
		}
	}
	fmt.Printf("/debug/trace: ok (%d traces)\n", len(traces))
	return nil
}

// get fetches a URL with a bounded client and returns status + body.
func get(url string) (int, []byte, error) {
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
