package core

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"gottg/internal/rt"
)

// activationTag is the comm tag carrying remote task activations.
const activationTag = 0

// actHeaderLen is the fixed activation header:
//
//	[1B flags][4B ttID][4B slot][8B key]
//
// actFlagSpan (set only under causal tracing) appends the producer's 8-byte
// span id between the header and the payload, so the receive side can tie
// the delivery back to the remote span that performed the send.
const actHeaderLen = 17

const (
	actFlagPayload = 1 << 0
	actFlagSpan    = 1 << 1
	// actFlagPrio appends the sender's 4-byte bottom-level priority estimate
	// for the destination TT after the (optional) span id, so remote tasks
	// keep their urgency across ranks. Set only when the sender runs the
	// online priority estimator — the default wire stays byte-identical.
	actFlagPrio = 1 << 2
)

// RegisterPayload registers a concrete payload type for cross-rank
// serialization (gob fallback). Call once per type before MakeExecutable on
// all ranks. Types whose fields are all fixed-width scalars should prefer
// RegisterFlatPayload, and hot custom types RegisterCodec — both skip gob
// entirely on the wire.
func RegisterPayload(v any) { gob.Register(v) }

// remoteSend appends one activation to the owning rank's coalesced batch
// buffer (the frame ships when a flush rule fires; see comm/batch.go).
// Entry format:
//
//	[1B flags][4B ttID][4B slot][8B key]([8B span])([4B prio])[1B codecID][payload bytes...]
func (g *Graph) remoteSend(w *rt.Worker, tt *TT, slot int, key uint64, c *rt.Copy, owned bool) {
	dstRank := tt.mapFn(key)
	prio := g.prio
	buf := g.proc.BatchBegin(dstRank)
	var hdr [actHeaderLen]byte
	if c != nil {
		hdr[0] |= actFlagPayload
	}
	if g.causal {
		hdr[0] |= actFlagSpan
	}
	if prio != nil {
		hdr[0] |= actFlagPrio
	}
	binary.LittleEndian.PutUint32(hdr[1:], uint32(tt.id))
	binary.LittleEndian.PutUint32(hdr[5:], uint32(slot))
	binary.LittleEndian.PutUint64(hdr[9:], key)
	buf = append(buf, hdr[:]...)
	if g.causal {
		// The producer span performing this send (0 when seeding).
		var span [8]byte
		binary.LittleEndian.PutUint64(span[:], w.CauseCtx().SpanID)
		buf = append(buf, span[:]...)
	}
	if hdr[0]&actFlagPrio != 0 {
		// The sender's current estimate for the destination TT (its per-key
		// priority function, when it has one, is evaluated receiver-side).
		var p int32
		if tt.prioFn != nil {
			p = tt.prioFn(key)
		} else {
			p = prio.prioFor(tt)
		}
		var pb [4]byte
		binary.LittleEndian.PutUint32(pb[:], uint32(p))
		buf = append(buf, pb[:]...)
	}
	if c != nil {
		var err error
		// The batch buffer lock held between BatchBegin and BatchEnd is what
		// keeps the per-destination gob stream's bytes in wire order.
		buf, err = g.encodePayload(buf, c.Val, dstRank, w.HTSlot())
		if err != nil {
			g.proc.BatchCancel(dstRank)
			panic(fmt.Sprintf("ttg: cannot serialize payload for %s (did you RegisterPayload?): %v", tt.name, err))
		}
		if owned {
			c.Release(w)
		}
	}
	g.proc.BatchEnd(dstRank, buf)
}

// handleActivation runs under the rank's receive lock, on the goroutine that
// delivered the frame (as service worker 1), once per activation entry
// unpacked from a batch frame: decode and deliver locally. Remote-supplied
// bytes must never be able to kill that goroutine — every malformation
// aborts the graph instead.
func (g *Graph) handleActivation(src int, payload []byte) {
	if g.rtm.Aborting() {
		return // abort drain: skip the decode; comm still counts the receipt
	}
	if len(payload) < actHeaderLen {
		g.rtm.Abort(fmt.Errorf("ttg: malformed activation from rank %d: %d bytes", src, len(payload)))
		return
	}
	flags := payload[0]
	hasPayload := flags&actFlagPayload != 0
	ttID := binary.LittleEndian.Uint32(payload[1:])
	slot := int(binary.LittleEndian.Uint32(payload[5:]))
	key := binary.LittleEndian.Uint64(payload[9:])
	body := payload[actHeaderLen:]
	var producerSpan uint64
	if flags&actFlagSpan != 0 {
		if len(body) < 8 {
			g.rtm.Abort(fmt.Errorf("ttg: malformed activation from rank %d: span flag without span id", src))
			return
		}
		producerSpan = binary.LittleEndian.Uint64(body)
		body = body[8:]
	}
	var wirePrio int32
	hasPrio := flags&actFlagPrio != 0
	if hasPrio {
		if len(body) < 4 {
			g.rtm.Abort(fmt.Errorf("ttg: malformed activation from rank %d: prio flag without priority", src))
			return
		}
		wirePrio = int32(binary.LittleEndian.Uint32(body))
		body = body[4:]
	}
	if int(ttID) >= len(g.tts) {
		g.rtm.Abort(fmt.Errorf("ttg: activation from rank %d names unknown TT %d", src, ttID))
		return
	}
	tt := g.tts[ttID]
	if slot < 0 || slot >= tt.nIn {
		g.rtm.Abort(fmt.Errorf("ttg: activation from rank %d names invalid slot %d of %s", src, slot, tt.name))
		return
	}
	cw := g.rtm.ServiceWorker(1)
	var c *rt.Copy
	if hasPayload {
		v, err := g.decodePayload(src, body)
		if err != nil {
			g.rtm.Abort(fmt.Errorf("ttg: cannot deserialize payload for %s from rank %d: %v", tt.name, src, err))
			return
		}
		c = cw.NewCopy(v)
	}
	if g.causal {
		// Attribute the local delivery to the remote producer span and the
		// wire frame that carried it. handleActivation never nests (batched
		// handlers run one at a time, under the rank's receive lock, on the
		// goroutine that delivered the frame), but reset the
		// context after the delivery so later non-activation work on this
		// service identity does not inherit it.
		cw.SetCauseCtx(rt.CauseCtx{SpanID: producerSpan, Rank: src, Frame: g.proc.DispatchFrameID()})
		defer cw.SetCauseCtx(rt.CauseCtx{})
	}
	if ps := g.prio; ps != nil && hasPrio {
		// The sender's urgency becomes the ambient hint for this delivery, so
		// a task discovered here is created no less urgent than the sender
		// believed it to be (the local estimate still wins when higher).
		ps.setHint(cw, wirePrio)
		defer ps.clearHint(cw)
	}
	g.deliver(cw, dest{tt: tt, slot: slot}, key, c, true)
}
