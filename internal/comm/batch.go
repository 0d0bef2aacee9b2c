package comm

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Per-destination activation coalescing: senders append activations into a
// per-destination buffer (BatchBegin/BatchEnd) and the buffer ships as ONE
// framed wire message, so N activations cost one transport send, one sequence
// number, one ack, and one retransmit-queue entry instead of N of each.
//
// Frame layout:
//
//	[4B count][8B frame id] ( [4B len][entry bytes] ) x count   (little-endian)
//
// The frame id ((sender rank + 1) << 40 | per-sender sequence, never zero)
// identifies the frame across the whole world; the receive side exposes it
// to batched handlers via DispatchFrameID so causal tracing can tie a
// remote activation to the wire message that carried it.
//
// Flush rule (Nagle's, on the link layer): BatchEnd ships the buffer at once
// when the link to dst has nothing unacked, and leaves it to gather
// otherwise; the ack that empties the link ships whatever gathered behind it
// (handleAck). Only two other flushes exist: on the size threshold
// (SetBatchLimit, default DefaultBatchBytes) and at World.Shutdown. So at
// most one batch frame per link waits for its ack, a lone activation leaves
// without waiting for anything, and a burst rides the next ack together.
//
// The rule rests on one invariant: a non-empty batch toward dst implies an
// unacked message toward dst, whose ack is bound to come (the link layer
// retransmits until it does) or whose peer is declared dead. BatchEnd and
// handleAck keep it with a Dekker-style handshake over two atomics, both
// sequentially consistent in Go: BatchEnd writes count and then reads the
// link's busy flag; handleAck writes busy=false and then reads count. In any
// interleaving one of the two reads sees the other's write, so either the
// appender finds the link idle and flushes, or the ack finds the entry and
// flushes (both may; the second finds the buffer empty under b.mu). Reading
// busy costs the append one atomic load.
//
// Termination accounting is per-activation at append time (BatchEnd counts
// MsgSentTo; the receiver counts MsgRecvdFrom per delivered entry), so a
// buffered-but-uncounted activation cannot exist and false termination is
// impossible — a buffered activation merely keeps the wave unbalanced until
// the ack that ships it.
//
// Frame buffers come from a per-sender slab pool and are recycled once the
// frame is provably done: the sender reclaims a slab when the frame's ack
// arrives (the receiver acks only after dispatch, and the wire carried an
// encoded copy, made under the link lock the reclaiming ack also takes, so
// duplicate or delayed copies never touch the slab). The wire frame itself
// is carved out of a shared chunk (FrameAlloc), so steady state allocates a
// small fraction of an object per flush.
const (
	batchHeaderLen   = 12 // [4B count][8B frame id]
	batchEntryHdrLen = 4

	// DefaultBatchBytes is the default flush-on-size threshold.
	DefaultBatchBytes = 8 << 10

	// slabPoolCap bounds the per-rank free list of recycled frame buffers.
	slabPoolCap = 16
)

// FlushReason labels why a batch buffer was flushed (comm.flushes metrics).
type FlushReason uint8

const (
	// FlushSize: the buffer reached the batch limit.
	FlushSize FlushReason = iota
	// FlushIdle: the link was idle at the append, or the ack that emptied it
	// arrived.
	FlushIdle
	// FlushShutdown: World.Shutdown.
	FlushShutdown
)

// batchBuf is one destination's send buffer. count is atomic so flushBatch
// can skip empty buffers without taking the lock and so handleAck can read
// it against BatchEnd (the flush rule); all writes happen under mu.
type batchBuf struct {
	mu         sync.Mutex
	buf        []byte
	entryStart int
	count      atomic.Int32
}

// RegisterBatched installs h for tag and marks the tag batched: messages
// appended via BatchBegin/BatchEnd coalesce per destination into framed
// messages, and the receive side unpacks each frame and invokes h once per
// entry, in send order. Entry slices passed to h alias the frame buffer and
// must not be retained after h returns. At most one tag may be batched.
// Must be called before Start.
func (p *Proc) RegisterBatched(tag int, h Handler) {
	p.Register(tag, h)
	if p.batchTag >= 0 && p.batchTag != tag {
		panic("comm: only one batched tag is supported")
	}
	p.batchTag = tag
	if p.batch == nil {
		p.batch = make([]batchBuf, len(p.world.procs))
	}
}

// SetBatchLimit adjusts the flush-on-size threshold (bytes) of every local
// rank. Must be called before any Proc is started.
func (w *World) SetBatchLimit(n int) {
	w.beforeStart("SetBatchLimit")
	if n < batchHeaderLen+batchEntryHdrLen {
		panic("comm: batch limit too small")
	}
	w.batchLimit = n
}

// BatchBegin opens one entry in dst's batch buffer and returns the buffer
// positioned after the entry's length placeholder. The caller appends the
// entry's bytes and hands the result to BatchEnd (or BatchCancel on an
// encoding failure); dst's buffer stays locked in between, which also
// serializes any per-destination codec stream state against the wire order.
func (p *Proc) BatchBegin(dst int) []byte {
	b := &p.batch[dst]
	b.mu.Lock()
	if b.buf == nil {
		b.buf = p.slabGet()
	}
	b.buf = append(b.buf, 0, 0, 0, 0) // entry length, filled by BatchEnd
	b.entryStart = len(b.buf)
	return b.buf
}

// BatchEnd seals the entry opened by BatchBegin, accounts one sent message
// in the termination protocol, and flushes the buffer if it crossed the size
// threshold or the link to dst has nothing unacked (the flush rule above).
func (p *Proc) BatchEnd(dst int, buf []byte) {
	b := &p.batch[dst]
	binary.LittleEndian.PutUint32(buf[b.entryStart-batchEntryHdrLen:], uint32(len(buf)-b.entryStart))
	b.buf = buf
	b.count.Add(1)
	p.det.MsgSentTo(dst)
	if len(buf) >= p.world.batchLimit {
		p.flushLocked(dst, b, FlushSize)
	} else if !p.sendLinks[dst].busy.Load() {
		p.flushLocked(dst, b, FlushIdle)
	}
	b.mu.Unlock()
}

// BatchCancel abandons the entry opened by BatchBegin (encoding failed
// mid-entry) and releases the buffer lock.
func (p *Proc) BatchCancel(dst int) {
	b := &p.batch[dst]
	b.buf = b.buf[:b.entryStart-batchEntryHdrLen]
	b.mu.Unlock()
}

// FlushBatches ships every non-empty batch buffer. Safe from any goroutine;
// World.Shutdown calls it. The flush rule needs no other caller: the ack
// that empties a link flushes for it.
func (p *Proc) FlushBatches(reason FlushReason) {
	for dst := range p.batch {
		p.flushBatch(dst, reason)
	}
}

// flushBatch ships dst's batch buffer if it holds anything.
func (p *Proc) flushBatch(dst int, reason FlushReason) {
	if p.batch == nil {
		return
	}
	b := &p.batch[dst]
	if b.count.Load() == 0 {
		return
	}
	b.mu.Lock()
	p.flushLocked(dst, b, reason)
	b.mu.Unlock()
}

// flushLocked seals and posts dst's frame; the caller holds b.mu.
func (p *Proc) flushLocked(dst int, b *batchBuf, reason FlushReason) {
	count := b.count.Load()
	if count == 0 {
		return
	}
	payload := b.buf
	binary.LittleEndian.PutUint32(payload[:4], uint32(count))
	fid := uint64(p.rank+1)<<40 | p.frameSeq.Add(1)
	binary.LittleEndian.PutUint64(payload[4:batchHeaderLen], fid)
	b.buf = nil
	b.count.Store(0)
	if mx := p.world.mx; mx != nil {
		mx.sent.Inc(p.rank)
		mx.bytesSent.Add(p.rank, uint64(len(payload)))
		mx.batchSize.Observe(p.rank, uint64(count))
		mx.flushCounter(reason).Inc(p.rank)
	}
	if p.world.trace.Load() {
		p.recordSend(dst, p.batchTag, len(payload), fid)
	}
	// a piggybacks this rank's load hint on every frame, so ranks that
	// exchange activations see each other's depth at batch-traffic rate
	// without any dedicated messages (heartbeats cover the silent pairs).
	p.post(dst, message{src: p.rank, tag: p.batchTag, payload: payload, a: p.stealLoad(), slab: true})
}

// dispatchBatch unpacks one coalesced frame under the receive lock and
// feeds each entry to the batched handler in send order. Defensive
// throughout: remote-supplied bytes must not be able to take the rank down,
// so a malformed frame is surfaced through the error hook (which
// core wires to a graph abort) instead of panicking. Receipts are counted
// per entry — the sender counted each activation at append time, and the
// replay-prune protocol counts activations, not frames.
func (p *Proc) dispatchBatch(m message) {
	h := p.handlers[m.tag]
	pl := m.payload
	p.noteLoadHint(m.src, m.a) // piggybacked load hint (see flushLocked)
	if mx := p.world.mx; mx != nil {
		mx.recvd.Inc(p.rank)
		mx.bytesRecvd.Add(p.rank, uint64(len(pl)))
	}
	var start time.Time
	traced := p.world.trace.Load()
	if traced {
		start = time.Now()
	}
	count, delivered := 0, 0
	var fid uint64
	ok := len(pl) >= batchHeaderLen
	if ok {
		count = int(int32(binary.LittleEndian.Uint32(pl)))
		fid = binary.LittleEndian.Uint64(pl[4:batchHeaderLen])
		ok = count > 0
	}
	p.curFrameID = fid
	off := batchHeaderLen
	for i := 0; ok && i < count; i++ {
		if len(pl)-off < batchEntryHdrLen {
			ok = false
			break
		}
		sz := int(int32(binary.LittleEndian.Uint32(pl[off:])))
		off += batchEntryHdrLen
		if sz < 0 || sz > len(pl)-off {
			ok = false
			break
		}
		entry := pl[off : off+sz : off+sz]
		off += sz
		if p.prune.dispatched != nil {
			p.prune.dispatched[m.src]++
		}
		h(m.src, entry)
		p.det.MsgRecvdFrom(m.src)
		delivered++
	}
	if ok && off != len(pl) {
		ok = false
	}
	if !ok {
		// A well-formed sender cannot produce this, so the frame was forged
		// or corrupted. Credit one receipt when nothing was delivered (a raw
		// injected Send counted one send, keeping the wave balanced for the
		// abort to complete), count the drop, and surface the error.
		if delivered == 0 {
			p.det.MsgRecvdFrom(m.src)
			if p.prune.dispatched != nil {
				p.prune.dispatched[m.src]++
			}
		}
		p.reject(fmt.Errorf("comm: rank %d: malformed batch frame from rank %d (%d bytes, %d/%d entries delivered)",
			p.rank, m.src, len(pl), delivered, count))
	}
	p.curFrameID = 0
	if p.steal.actsFrom != nil && delivered > 0 {
		// Locality signal for victim selection: count delivered activations
		// per source once per frame (cheap, and frames are the granularity
		// that matters for link warmth anyway).
		p.steal.actsFrom[m.src].Add(int64(delivered))
	}
	if traced {
		p.recordRecv(m.src, m.tag, len(pl), fid, start, time.Since(start))
	}
}

// slabGet pops a recycled frame buffer (or allocates one) sized for the
// flush threshold, pre-seeded with the frame count placeholder.
func (p *Proc) slabGet() []byte {
	p.slabMu.Lock()
	if n := len(p.slabs); n > 0 {
		s := p.slabs[n-1]
		p.slabs = p.slabs[:n-1]
		p.slabMu.Unlock()
		return s[:batchHeaderLen]
	}
	p.slabMu.Unlock()
	return make([]byte, batchHeaderLen, p.world.batchLimit+512)
}

// DispatchFrameID returns the id of the coalesced frame currently being
// unpacked — meaningful only inside a batched handler, which runs under the
// rank's receive lock on the goroutine that delivered the frame (0 elsewhere,
// and for malformed frames too short to carry one).
// Frame ids are world-unique and never zero.
func (p *Proc) DispatchFrameID() uint64 { return p.curFrameID }

// slabPut returns a frame buffer to this rank's pool.
func (p *Proc) slabPut(b []byte) {
	p.slabMu.Lock()
	if len(p.slabs) < slabPoolCap {
		p.slabs = append(p.slabs, b)
	}
	p.slabMu.Unlock()
}
