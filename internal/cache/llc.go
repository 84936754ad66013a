// Package cache models the volatile cache domain in front of persistent
// memory: the Xeon last-level cache that absorbs inbound I/O writes when
// Data Direct I/O (DDIO) is enabled, the CPU caches that hold ordinary
// stores until CLFLUSHOPT, and the eADR variant in which the whole cache
// hierarchy joins the persistence domain.
//
// The domain does not hold data — the pmem.Device's contents are always
// current. It tracks *which* dirty lines are cache-resident, evicts them
// FIFO when capacity is exceeded (a natural eviction writes the line back
// to media, making it durable), and translates flushes into persists.
//
// Cache/flush traffic arrives concurrently from many worker goroutines when
// the parallel execution engine is active, so the domain is event-sourced:
// CacheLines/FlushLines only append an event stamped with the access's
// canonical sequence number, and Drain replays the buffered events in
// sequence order at a quiescent point (kernel exit, CPU phase exit, crash,
// or any state query). FIFO insertion order, eviction decisions, and the
// resulting durable set are therefore identical no matter how the OS
// scheduled the workers.
package cache

import (
	"cmp"
	"slices"
	"sync"

	"github.com/gpm-sim/gpm/internal/pmem"
	"github.com/gpm-sim/gpm/internal/sim"
	"github.com/gpm-sim/gpm/internal/telemetry"
)

// Domain is the volatile cache domain over one PM device.
type Domain struct {
	params *sim.Params
	dev    *pmem.Device

	mu       sync.Mutex
	events   []domainEvent
	lineBuf  []uint64          // the buffered events' lines, back to back
	persist  []persistReq      // drain scratch
	resident map[uint64]uint64 // line -> generation
	queue    []fifoEntry
	capLines int
	gen      uint64

	eADR      bool
	evictions int64
	flushed   int64

	// Telemetry mirrors; nil (no-op) until AttachTelemetry.
	telEvictions *telemetry.Counter
	telFlushed   *telemetry.Counter
	telResident  *telemetry.Gauge
}

// AttachTelemetry mirrors eviction/flush activity into the registry under
// the llc.* namespace. Passing a nil registry detaches.
func (d *Domain) AttachTelemetry(r *telemetry.Registry) {
	d.telEvictions = r.Counter("llc.evictions")
	d.telFlushed = r.Counter("llc.flushed_lines")
	d.telResident = r.Gauge("llc.resident_lines")
}

// domainEvent is one buffered cache fill or flush; its lines are
// lineBuf[off:off+n].
type domainEvent struct {
	flush  bool
	off, n int
	seq    uint64
}

type fifoEntry struct {
	line uint64
	gen  uint64
}

// NewDomain returns a cache domain over dev sized from params.LLCCapacity.
func NewDomain(params *sim.Params, dev *pmem.Device) *Domain {
	capLines := int(params.LLCCapacity) / params.LineSize()
	if capLines < 1 {
		capLines = 1
	}
	return &Domain{
		params:   params,
		dev:      dev,
		resident: make(map[uint64]uint64),
		capLines: capLines,
	}
}

// SetEADR switches the domain into eADR mode: cached lines are inside the
// persistence domain, so caching a line immediately makes it durable.
func (d *Domain) SetEADR(on bool) {
	d.mu.Lock()
	d.eADR = on
	d.mu.Unlock()
}

// EADR reports whether eADR mode is enabled.
func (d *Domain) EADR() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.eADR
}

// CacheLines records that the given dirty PM lines became cache-resident by
// the write with canonical sequence seq. The event is buffered; Drain
// applies it. The lines are copied, so callers may reuse the slice.
func (d *Domain) CacheLines(lines []uint64, seq uint64) { d.buffer(false, lines, seq) }

// FlushLines records a CLFLUSHOPT of the given lines at canonical sequence
// seq: when drained, they leave the cache and persist — unless a line was
// re-dirtied by a write that canonically follows the flush, in which case it
// stays dirty. The lines are copied, so callers may reuse the slice.
func (d *Domain) FlushLines(lines []uint64, seq uint64) { d.buffer(true, lines, seq) }

func (d *Domain) buffer(flush bool, lines []uint64, seq uint64) {
	if len(lines) == 0 {
		return
	}
	d.mu.Lock()
	d.events = append(d.events, domainEvent{flush: flush, off: len(d.lineBuf), n: len(lines), seq: seq})
	d.lineBuf = append(d.lineBuf, lines...)
	d.mu.Unlock()
}

// Drain replays all buffered cache/flush events in canonical sequence
// order. It must be called at a quiescent point: no concurrent writers may
// be appending events while the drain runs (kernel launches and CPU phases
// drain on exit; queries drain on entry).
func (d *Domain) Drain() {
	d.mu.Lock()
	d.drainLocked()
	d.mu.Unlock()
}

func (d *Domain) drainLocked() {
	if len(d.events) == 0 {
		return
	}
	events := d.events
	// Canonical sequences are unique per access; a stable sort keeps the
	// replay deterministic even if a caller ever reused one.
	slices.SortStableFunc(events, func(a, b domainEvent) int { return cmp.Compare(a.seq, b.seq) })

	persisted := d.persist[:0]
	var evictedNow, flushedNow int64
	for _, ev := range events {
		lines := d.lineBuf[ev.off : ev.off+ev.n]
		if ev.flush {
			for _, la := range lines {
				delete(d.resident, la)
				persisted = append(persisted, persistReq{la, ev.seq})
			}
			d.flushed += int64(len(lines))
			flushedNow += int64(len(lines))
			continue
		}
		if d.eADR {
			// Inside the persistence domain: the write is durable the
			// instant it is cached. The seq guard keeps canonically
			// later (still-buffered) writes to the same line dirty.
			for _, la := range lines {
				persisted = append(persisted, persistReq{la, ev.seq})
			}
			continue
		}
		for _, la := range lines {
			d.gen++
			d.resident[la] = d.gen
			d.queue = append(d.queue, fifoEntry{la, d.gen})
			for len(d.resident) > d.capLines && len(d.queue) > 0 {
				e := d.queue[0]
				d.queue = d.queue[1:]
				if g, ok := d.resident[e.line]; ok && g == e.gen {
					delete(d.resident, e.line)
					persisted = append(persisted, persistReq{e.line, ev.seq})
					d.evictions++
					evictedNow++
				}
			}
		}
	}
	d.events, d.lineBuf = events[:0], d.lineBuf[:0]
	d.telEvictions.Add(evictedNow)
	d.telFlushed.Add(flushedNow)
	d.telResident.Set(int64(len(d.resident)))
	for _, pr := range persisted {
		d.dev.PersistLineBefore(pr.line, pr.seq)
	}
	d.persist = persisted[:0]
}

type persistReq struct {
	line uint64
	seq  uint64
}

// FlushAll writes back every resident line (wbinvd-scale flush, used by
// eADR power-fail drain modeling and tests).
func (d *Domain) FlushAll() {
	d.mu.Lock()
	d.drainLocked()
	lines := make([]uint64, 0, len(d.resident))
	for la := range d.resident {
		lines = append(lines, la)
	}
	d.resident = make(map[uint64]uint64)
	d.queue = nil
	d.flushed += int64(len(lines))
	d.mu.Unlock()
	d.telFlushed.Add(int64(len(lines)))
	d.telResident.Set(0)
	// Deterministic write-back order for the fault models downstream.
	slices.Sort(lines)
	d.dev.PersistLines(lines)
}

// Resident reports whether the line containing addr is cache-resident.
func (d *Domain) Resident(addr uint64) bool {
	la := addr / uint64(d.params.LineSize()) * uint64(d.params.LineSize())
	d.mu.Lock()
	defer d.mu.Unlock()
	d.drainLocked()
	_, ok := d.resident[la]
	return ok
}

// ResidentLines returns the number of dirty lines currently held.
func (d *Domain) ResidentLines() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.drainLocked()
	return len(d.resident)
}

// Evictions returns the number of natural (capacity) evictions so far.
func (d *Domain) Evictions() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.drainLocked()
	return d.evictions
}

// Crash discards all cache-resident state, including buffered events that
// were never drained — they are in-flight traffic lost with the power. The
// underlying device's own Crash must be invoked separately; this only
// clears residency tracking.
func (d *Domain) Crash() {
	d.mu.Lock()
	d.events = nil
	d.resident = make(map[uint64]uint64)
	d.queue = nil
	d.mu.Unlock()
	d.telResident.Set(0)
}
