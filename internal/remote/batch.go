package remote

import "sync"

// Wire-level batching: every invoke, sync or async, enqueues here instead
// of writing its own frame, and a per-connection flusher goroutine drains
// the queue into msgInvoke frames — a lone call is a frame with a count
// of one. Flushing is "smart batching" rather than timer-driven: whenever the flusher is idle it sends
// whatever has queued immediately, so a lone call on an idle connection
// pays no added latency, while calls arriving during a frame write pile
// up and leave as one frame. The flush policy is therefore:
//
//   - occupancy: at most maxBatchCalls calls per frame;
//   - size: at most maxBatchBytes of encoded calls per frame;
//   - explicit: Conn.Flush drains the queue on the calling goroutine
//     before returning.

const (
	// maxBatchCalls bounds calls per invoke frame.
	maxBatchCalls = 128
	// maxBatchBytes bounds the encoded size of one invoke frame (well
	// under maxFrame; a single oversized call still travels alone and is
	// rejected by the per-call frame check).
	maxBatchBytes = 1 << 20
	// maxReleaseEntries bounds entries per msgRelease frame (each entry is
	// three uvarints, so even the cap is a small frame).
	maxReleaseEntries = 4096
)

// batchedCall is one encoded, pending invocation awaiting a frame.
type batchedCall struct {
	reqID    uint64
	exportID uint64
	method   string
	// traceID/parentSpan are the call's wire trace block (zero traceID
	// encodes as the one-byte untraced flags).
	traceID    uint64
	parentSpan uint64
	args       []byte
	// argsBuf is the pooled buffer args lives in (nil for zero-arg calls);
	// sendBatch releases it once the frame is written. Calls still queued
	// at shutdown keep theirs — the GC reclaims them, the pool just misses.
	argsBuf *frameBuf
}

// wireSize is the call's encoded footprint (over-approximated headers,
// including the worst-case trace block).
func (b batchedCall) wireSize() int {
	return len(b.args) + len(b.method) + 64
}

// batcher coalesces pending invokes — and capability releases — for one
// connection.
type batcher struct {
	c *Conn

	mu       sync.Mutex
	q        []batchedCall
	rq       []releaseEntry // pending import releases, coalesced per frame
	inflight int            // batches taken but not yet written
	idle     *sync.Cond     // signalled when inflight drops to zero

	// qSpare/rqSpare recycle the slices take/takeReleases pop: the sender
	// returns each batch's backing array after the write, so steady-state
	// batching ping-pongs between two arrays instead of allocating one per
	// flush.
	qSpare  []batchedCall
	rqSpare []releaseEntry

	// kick signals the flusher that the queue is non-empty (capacity 1:
	// a pending kick covers any number of enqueues).
	kick chan struct{}
}

func newBatcher(c *Conn) *batcher {
	b := &batcher{c: c, kick: make(chan struct{}, 1)}
	b.idle = sync.NewCond(&b.mu)
	return b
}

// enqueue adds one call and nudges the flusher.
func (b *batcher) enqueue(call batchedCall) {
	b.mu.Lock()
	b.q = append(b.q, call)
	b.mu.Unlock()
	b.nudge()
}

// enqueueRelease queues one import release. Releases churned in a burst (a
// table sweep, a fan of proxies dying together) leave as one msgRelease
// frame, exactly as batched invokes do.
func (b *batcher) enqueueRelease(e releaseEntry) {
	b.mu.Lock()
	b.rq = append(b.rq, e)
	b.mu.Unlock()
	b.nudge()
}

func (b *batcher) nudge() {
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

// run is the flusher goroutine: drain whenever kicked, exit with the
// connection. Calls still queued at shutdown fail through their pending
// completions (Conn.shutdown), not here.
func (b *batcher) run() {
	for {
		select {
		case <-b.kick:
		case <-b.c.done:
			return
		}
		b.drain()
	}
}

// drain sends frames until both queues are empty. Safe to call
// concurrently (Conn.Flush races the flusher): take/takeReleases are
// atomic, so each queued call and release is sent exactly once. Invokes
// drain before releases, so a call enqueued before its proxy was released
// reaches the exporter while the export entry is still live.
func (b *batcher) drain() {
	for {
		if calls := b.take(); len(calls) != 0 {
			b.c.sendBatch(calls)
			b.recycleCalls(calls)
			b.sent()
			continue
		}
		rels := b.takeReleases()
		if len(rels) == 0 {
			return
		}
		b.c.sendReleases(rels)
		b.recycleReleases(rels)
		b.sent()
	}
}

// flush is drain plus the guarantee Conn.Flush advertises: it also waits
// out batches the background flusher popped but has not finished writing,
// so "flush returned" means "every call enqueued before it is on the
// wire (or has failed its pendings)".
func (b *batcher) flush() {
	b.drain()
	b.mu.Lock()
	for b.inflight > 0 || len(b.q) > 0 || len(b.rq) > 0 {
		if len(b.q) > 0 || len(b.rq) > 0 {
			// More work queued while we waited; send it ourselves.
			b.mu.Unlock()
			b.drain()
			b.mu.Lock()
			continue
		}
		b.idle.Wait()
	}
	b.mu.Unlock()
}

// sent retires one in-flight batch.
func (b *batcher) sent() {
	b.mu.Lock()
	b.inflight--
	if b.inflight == 0 {
		b.idle.Broadcast()
	}
	b.mu.Unlock()
}

// take pops up to one frame's worth of queued calls (occupancy and size
// bound), marking them in flight until sent. A single call exceeding
// maxBatchBytes still travels, alone. The popped slice reuses the spare
// backing array (recycleCalls returns it after the send), so steady-state
// batching allocates nothing here.
func (b *batcher) take() []batchedCall {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.q) == 0 {
		return nil
	}
	b.inflight++
	n, size := 0, 0
	for n < len(b.q) && n < maxBatchCalls {
		s := b.q[n].wireSize()
		if n > 0 && size+s > maxBatchBytes {
			break
		}
		size += s
		n++
	}
	out := append(b.qSpare[:0], b.q[:n]...)
	b.qSpare = nil
	rest := copy(b.q, b.q[n:])
	clear(b.q[rest:]) // drop arg references so sent calls are collectable
	b.q = b.q[:rest]
	return out
}

// recycleCalls returns a sent batch's backing array to the spare slot
// (cleared, so it pins no argument buffers). Concurrent drains race for
// the slot; the loser's array goes to the GC.
func (b *batcher) recycleCalls(calls []batchedCall) {
	clear(calls)
	b.mu.Lock()
	if b.qSpare == nil {
		b.qSpare = calls[:0]
	}
	b.mu.Unlock()
}

// recycleReleases is recycleCalls for release batches.
func (b *batcher) recycleReleases(rels []releaseEntry) {
	clear(rels)
	b.mu.Lock()
	if b.rqSpare == nil {
		b.rqSpare = rels[:0]
	}
	b.mu.Unlock()
}

// releaseBacklog reports the queued-release count (telemetry gauge).
func (b *batcher) releaseBacklog() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.rq)
}

// takeReleases pops up to one frame's worth of queued releases, marking
// them in flight until sent.
func (b *batcher) takeReleases() []releaseEntry {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.rq) == 0 {
		return nil
	}
	b.inflight++
	n := len(b.rq)
	if n > maxReleaseEntries {
		n = maxReleaseEntries
	}
	out := append(b.rqSpare[:0], b.rq[:n]...)
	b.rqSpare = nil
	rest := copy(b.rq, b.rq[n:])
	b.rq = b.rq[:rest]
	return out
}
