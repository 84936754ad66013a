package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/gpm-sim/gpm/internal/serve/client"
)

const (
	txnKeys        = 1024
	txnClients     = 2  // synchronous: one transaction in flight each
	txnMaxAttempts = 64 // conflict re-runs before a transaction counts as failed

	// txnBackoff is how long a client waits after losing validation. The
	// winner's commit is in flight for about a millisecond, during which
	// every re-run aborts again at admission within ~35 µs: without a pause
	// the loser burns its whole attempt budget inside two of the winner's
	// epochs.
	txnBackoff = 250 * time.Microsecond
)

// txnPairs draws txnKeys keys with private store slots and groups them in
// fixed pairs that live on one shard. A transaction increments both keys of
// one pair, so at every snapshot the two counters of a pair must be equal:
// a free snapshot-isolation check on every read, with no extra round trip.
func txnPairs(seed uint64, n *node) ([][2]uint64, error) {
	owned, err := pickKeys(seed, txnKeys, 1, n.slotOf)
	if err != nil {
		return nil, err
	}
	byShard := make([][]uint64, benchShards)
	for _, k := range owned[0] {
		sh, _ := n.slotOf(k)
		byShard[sh] = append(byShard[sh], k)
	}
	var pairs [][2]uint64
	for _, ks := range byShard {
		for i := 0; i+1 < len(ks); i += 2 {
			pairs = append(pairs, [2]uint64{ks[i], ks[i+1]})
		}
	}
	return pairs, nil
}

// txnClient is one synchronous transaction client and its ledger.
type txnClient struct {
	cl        *client.Client
	base      uint64 // op-stream position: transaction i uses mix64(base + i*golden)
	next      uint64
	committed map[int]int64 // pair index -> increments known committed
	lat       []int64       // ns, BEGIN to COMMIT verdict including re-runs; this trial

	txns, attempts, aborts, anomalies, failed int64
	firstBad                                  string
}

// rmw runs one read-modify-write increment transaction on pair p until it
// commits or the attempt budget is spent.
func (c *txnClient) rmw(pairs [][2]uint64, p int) {
	start := time.Now()
	c.txns++
	for attempt := 0; attempt < txnMaxAttempts; attempt++ {
		c.attempts++
		err := func() error {
			txn, err := c.cl.Begin()
			if err != nil {
				return err
			}
			a, _, err := txn.Get(pairs[p][0])
			if err != nil {
				return err
			}
			b, _, err := txn.Get(pairs[p][1])
			if err != nil {
				return err
			}
			if a != b {
				c.anomalies++
			}
			txn.Set(pairs[p][0], a+1)
			txn.Set(pairs[p][1], b+1)
			res, err := txn.Commit()
			if err != nil {
				return err
			}
			if !res.Committed {
				c.aborts++
				return errConflict
			}
			return nil
		}()
		switch err {
		case nil:
			c.committed[p]++
			c.lat = append(c.lat, int64(time.Since(start)))
			return
		case errConflict:
			time.Sleep(txnBackoff)
		default:
			// Includes a commit whose outcome stayed unknown: the ledger can
			// no longer be exact, so it is a failure, not a retry.
			c.bad(err.Error())
			return
		}
	}
	c.bad(fmt.Sprintf("transaction on pair %d still conflicting after %d attempts", p, txnMaxAttempts))
}

var errConflict = fmt.Errorf("commit lost first-committer-wins validation")

func (c *txnClient) bad(msg string) {
	c.failed++
	if c.firstBad == "" {
		c.firstBad = msg
	}
}

// txnNode is a server with its transaction clients.
type txnNode struct {
	*node
	pairs   [][2]uint64
	cdf     []float64
	clients []*txnClient
}

var nextCID uint64 // every Dial gets a fresh client identity: a reused one is rejected by the dedup filter

func startTxnNode(seed uint64, traced bool) (*txnNode, error) {
	n, err := startServer(traced)
	if err != nil {
		return nil, err
	}
	tn := &txnNode{node: n, cdf: zipfCDF(txnKeys, zipfTheta)}
	if tn.pairs, err = txnPairs(seed, n); err != nil {
		n.stop()
		return nil, err
	}
	for i := 0; i < txnClients; i++ {
		nextCID++
		cl, err := client.Dial(client.Config{Addr: n.addr, Proto: client.MaxProto, Reliable: true, CID: nextCID})
		if err != nil {
			tn.stop()
			return nil, err
		}
		tn.clients = append(tn.clients, &txnClient{
			cl: cl, base: mix64(seed*golden ^ uint64(i+1)*0xd1b54a32d192ed03),
			committed: make(map[int]int64),
		})
	}
	// Every counter starts at 1, so no timed transaction pays a first
	// insert into its slot.
	cl := tn.clients[0].cl
	var futures []*client.Future
	for _, pair := range tn.pairs {
		for _, k := range pair {
			f, err := cl.Set(k, 1)
			if err != nil {
				tn.stop()
				return nil, err
			}
			futures = append(futures, f)
		}
	}
	for _, f := range futures {
		if body, err := cl.Wait(f); err != nil || body != "OK" {
			tn.stop()
			return nil, fmt.Errorf("txn preload: %q, %v", body, err)
		}
	}
	return tn, nil
}

func (tn *txnNode) stop() error {
	for _, c := range tn.clients {
		c.cl.Close()
	}
	return tn.node.stop()
}

// trial runs every client closed-loop for dur and returns the sorted
// latencies of the transactions that committed.
func (tn *txnNode) trial(dur time.Duration) (lat []int64, elapsed time.Duration) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range tn.clients {
		wg.Add(1)
		go func(c *txnClient) {
			defer wg.Done()
			c.lat = c.lat[:0]
			for time.Since(start) < dur {
				u := float64(mix64(c.base+c.next*golden)>>11) / (1 << 53)
				c.next++
				key := sort.SearchFloat64s(tn.cdf, u) % txnKeys
				c.rmw(tn.pairs, key/2%len(tn.pairs))
			}
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, c := range tn.clients {
		lat = append(lat, c.lat...)
	}
	sortInt64(lat)
	return lat, elapsed
}

// verify checks the ledger: every counter must equal its preloaded 1 plus
// the increments its pair is known to have committed. Then the shards, as for the KV workloads.
func (tn *txnNode) verify(r *result) {
	want := make(map[int]int64)
	for _, c := range tn.clients {
		r.Attempted += c.txns
		if c.failed > 0 {
			r.fail(c.failed, "%d transactions failed, first: %s", c.failed, c.firstBad)
		}
		if c.anomalies > 0 {
			r.fail(c.anomalies, "%d snapshots saw the two counters of a pair differ", c.anomalies)
		}
		for p, n := range c.committed {
			want[p] += n
		}
	}
	cl := tn.clients[0].cl
	for p, pair := range tn.pairs {
		for _, k := range pair {
			f, err := cl.Get(k)
			var body string
			if err == nil {
				body, err = cl.Wait(f)
			}
			got, _ := client.IsValue(body)
			if err != nil || int64(got) != 1+want[p] {
				r.fail(1, "key %d holds %d (%q, %v), ledger says %d", k, got, body, err, 1+want[p])
			}
		}
	}
	r.Attempted += int64(2 * len(tn.pairs))
	for _, c := range tn.clients {
		c.cl.Close()
	}
	tn.verifyShards(r)
}

// runTxn measures txn-rmw-zipf: four round trips per transaction at
// concurrency two, so epochs carry one to three riders — the sparse,
// latency-bound regime.
func runTxn(rc *runCtx, _ string) error {
	r := rc.res
	tn, setups, err := setUp(rc, func() (*txnNode, error) { return startTxnNode(rc.seed, rc.traced) })
	if err != nil {
		return err
	}
	tn.trial(rc.scale(warmup))

	trials := rc.trials()
	var perSec, p50, p99 []float64
	var commits int64
	var elapsed time.Duration
	reg := tn.srv.Registry()
	before := reg.Snapshot()
	attempts0 := tn.attempts()
	sim0 := tn.simTotalUS()
	sp := rc.tr.begin("serve.txn_closed", rc.root)
	for i := 0; i < trials; i++ {
		tsp := rc.tr.begin("bench.txn_trial", sp)
		lat, el := tn.trial(rc.measure() / time.Duration(trials))
		rc.tr.end(tsp)
		v50, _ := usAt(lat, 0.50)
		// A trial a box stall starved of commits cannot support p99 and
		// contributes nothing to it.
		if v99, ok := usAt(lat, 0.99); ok || rc.smoke {
			p99 = append(p99, v99)
		}
		perSec = append(perSec, float64(len(lat))/el.Seconds())
		p50 = append(p50, v50)
		commits += int64(len(lat))
		elapsed += el
	}
	rc.tr.end(sp)
	simUS := tn.simTotalUS() - sim0
	attempts := tn.attempts() - attempts0
	if len(p99) == 0 {
		r.fail(1, "no trial was long enough to support p99 (%d commits over %d trials)", commits, trials)
	}
	if rc.traced {
		after := reg.Snapshot()
		// Four requests per attempt: TXN, two snapshot GETs, COMMIT.
		serveRegistryMetrics(r, before, after, closedPhase{replies: 4 * attempts, elapsed: elapsed})
		stageMetrics(rc, sp, tn.reqs.Last(traceBuf))
		r.set("serve.txn_attempts_per_commit", ratio(float64(attempts), float64(commits)))
	} else {
		r.setSummary(mSetup, summarize(setups, int64(len(setups))))
		r.setSummary(mThroughput, summarize(perSec, commits))
		r.setSummary(mP50, summarize(p50, commits))
		r.setSummary(mTail, summarize(p99, commits))
		r.set(mSim, simUS/float64(commits))
	}
	tn.verify(r)
	return nil
}

func (tn *txnNode) attempts() (n int64) {
	for _, c := range tn.clients {
		n += c.attempts
	}
	return n
}
