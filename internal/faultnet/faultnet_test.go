package faultnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

// drive pushes a fixed script of lines through a wrapped pipe connection
// and returns the fault trace plus the bytes the peer received.
func drive(t *testing.T, sched Schedule, seed, connID uint64, lines int) ([]Fault, []byte) {
	t.Helper()
	client, server := net.Pipe()
	fc := Wrap(client, sched, seed, connID, nil)

	var got bytes.Buffer
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		io.Copy(&got, server)
	}()

	for i := 0; i < lines; i++ {
		if _, err := fc.Write([]byte(fmt.Sprintf("SET %d %d\n", i+1, i+100))); err != nil {
			break // injected reset ends the script, as it would a real client
		}
	}
	fc.Close()
	server.Close()
	wg.Wait()
	return fc.Faults(), got.Bytes()
}

// TestDeterministicPlacement is the faultnet contract: the same (seed,
// schedule, connID) produces a byte-identical fault trace AND delivers a
// byte-identical stream, run after run (and under -cpu=1,4, which reruns
// the whole test at different GOMAXPROCS).
func TestDeterministicPlacement(t *testing.T) {
	for _, sched := range Schedules() {
		sched := sched
		// Zero the timing components so the test doesn't sleep; placement
		// indices and split offsets are what determinism is about.
		sched.Latency, sched.Stall, sched.PartialPause = 0, 0, 0
		t.Run(sched.Name, func(t *testing.T) {
			for connID := uint64(1); connID <= 3; connID++ {
				f1, b1 := drive(t, sched, 42, connID, 40)
				f2, b2 := drive(t, sched, 42, connID, 40)
				if !reflect.DeepEqual(f1, f2) {
					t.Fatalf("conn %d: fault traces differ:\n%v\n%v", connID, f1, f2)
				}
				if !bytes.Equal(b1, b2) {
					t.Fatalf("conn %d: delivered bytes differ (%d vs %d bytes)", connID, len(b1), len(b2))
				}
			}
		})
	}
}

// TestSeedChangesPlacement: different seeds must move the faults (no
// accidental seed-independence).
func TestSeedChangesPlacement(t *testing.T) {
	sched, err := ScheduleByName("chaos")
	if err != nil {
		t.Fatal(err)
	}
	sched.Latency, sched.Stall, sched.PartialPause = 0, 0, 0
	f1, _ := drive(t, sched, 1, 1, 40)
	f2, _ := drive(t, sched, 2, 1, 40)
	if reflect.DeepEqual(f1, f2) {
		t.Fatalf("seed 1 and seed 2 produced identical traces: %v", f1)
	}
}

// TestDupDeliversWholeLines: duplication must retransmit complete lines,
// never tear one.
func TestDupDeliversWholeLines(t *testing.T) {
	sched := Schedule{Name: "dup-test", DupEvery: 2}
	faults, got := drive(t, sched, 7, 1, 6)
	var dups int
	for _, f := range faults {
		if f.Kind == "dup" {
			dups++
		}
	}
	if dups != 3 {
		t.Fatalf("expected 3 duplicated lines of 6, got %d (%v)", dups, faults)
	}
	lines := bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n"))
	if len(lines) != 9 {
		t.Fatalf("expected 9 delivered lines (6 + 3 dups), got %d: %q", len(lines), got)
	}
	seen := map[string]int{}
	for _, ln := range lines {
		if !bytes.HasPrefix(ln, []byte("SET ")) {
			t.Fatalf("torn or corrupt line delivered: %q", ln)
		}
		seen[string(ln)]++
	}
	for ln, n := range seen {
		if n > 2 {
			t.Fatalf("line %q delivered %d times, max is 2", ln, n)
		}
	}
}

// TestDupBuffersPartialTail: a Write ending mid-line holds the tail until
// the line completes, then delivers it intact.
func TestDupBuffersPartialTail(t *testing.T) {
	client, server := net.Pipe()
	fc := Wrap(client, Schedule{DupEvery: 100}, 1, 1, nil)
	var got bytes.Buffer
	done := make(chan struct{})
	go func() { io.Copy(&got, server); close(done) }()

	if _, err := fc.Write([]byte("SET 1 ")); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Write([]byte("99\nPING\n")); err != nil {
		t.Fatal(err)
	}
	fc.Close()
	server.Close()
	<-done
	if got.String() != "SET 1 99\nPING\n" {
		t.Fatalf("reassembled stream = %q", got.String())
	}
}

// TestResetKillsConn: after the scheduled reset, the wrapped side errors
// with ErrInjectedReset and the peer sees a closed stream; only a prefix
// of the fatal write is delivered.
func TestResetKillsConn(t *testing.T) {
	sched := Schedule{Name: "reset-test", ResetProb: 1, ResetAfterMin: 3, ResetAfterMax: 3}
	faults, got := drive(t, sched, 9, 1, 10)
	if len(faults) != 1 || faults[0].Kind != "reset" || faults[0].Index != 3 {
		t.Fatalf("expected exactly one reset at write 3, got %v", faults)
	}
	// Two full lines, then at most a prefix of the third.
	want2 := []byte("SET 1 100\nSET 2 101\n")
	if !bytes.HasPrefix(got, want2[:len(want2)]) {
		t.Fatalf("pre-reset lines not delivered intact: %q", got)
	}
	if len(got) > len(want2)+len("SET 3 102\n") {
		t.Fatalf("bytes delivered after the reset: %q", got)
	}
	// Writes after a reset fail immediately.
	c2, s2 := net.Pipe()
	defer s2.Close()
	fc := Wrap(c2, sched, 9, 1, nil)
	go io.Copy(io.Discard, s2)
	for i := 0; i < 4; i++ {
		fc.Write([]byte("x\n"))
	}
	if _, err := fc.Write([]byte("y\n")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("post-reset write err = %v, want ErrInjectedReset", err)
	}
}

// TestStatsAggregate: dialer-level counters see every connection.
func TestStatsAggregate(t *testing.T) {
	pl := NewPipeListener()
	defer pl.Close()
	go func() {
		for {
			c, err := pl.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(io.Discard, c)
				c.Close()
			}()
		}
	}()
	d := NewDialer(pl.Dial, Schedule{DupEvery: 1}, 5)
	for i := 0; i < 3; i++ {
		c, err := d.Dial()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write([]byte("PING\n")); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	if got := d.Stats().Conns(); got != 3 {
		t.Fatalf("dialer wrapped %d conns, want 3", got)
	}
	if got := d.Stats().Dups(); got != 3 {
		t.Fatalf("dialer counted %d duplicated lines, want 3", got)
	}
}

// TestPipeListener: dial/accept pair round-trips and Close unblocks both.
func TestPipeListener(t *testing.T) {
	pl := NewPipeListener()
	go func() {
		c, err := pl.Accept()
		if err != nil {
			return
		}
		io.Copy(c, c) // echo
		c.Close()
	}()
	c, err := pl.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Write([]byte("hello\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "hello\n" {
		t.Fatalf("echo = %q, %v", buf, err)
	}
	c.Close()
	pl.Close()
	if _, err := pl.Dial(); err == nil {
		t.Fatal("dial after close succeeded")
	}
	if _, err := pl.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept after close = %v, want net.ErrClosed", err)
	}
}
