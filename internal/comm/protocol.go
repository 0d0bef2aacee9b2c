package comm

// The protocol table: every reserved control tag, how it travels, and who
// handles it. A control message leaves a rank only through emit and enters
// its handler only through dispatch, so this table is the whole answer to
// "is this tag sequenced, and does the wave count it?" (DESIGN.md §7).

// Reserved control tags (application tags must be >= 0).
const (
	tagProbe       = -1  // root -> all: contribute your counters when quiescent
	tagReply       = -2  // all -> root: (sent, recvd) contribution
	tagTerminate   = -3  // root -> all: global termination
	tagAbort       = -4  // any -> all: abort notification with a reason payload
	tagAck         = -5  // link layer: a standalone cumulative ack
	tagHeartbeat   = -6  // failure detection: liveness beacon
	tagRankDead    = -7  // coordinator -> all: rank a confirmed dead
	tagPrune       = -8  // receiver -> sender: a app messages dispatched; replay log prefix is durable
	tagStealReq    = -9  // thief -> victim (steal.go)
	tagStealResp   = -10 // victim -> thief
	tagStealAccept = -11 // thief -> victim (two-phase)
	tagStealCommit = -12 // victim -> thief (two-phase)
	tagStealAbort  = -13 // victim -> thief (two-phase)
	tagTelemetry   = -14 // telemetry plane: metric interval frame
)

// protocol describes one reserved tag.
type protocol struct {
	// sequenced messages ride the reliable link (post: sequence number,
	// retransmit until acked, in-order release) and count in comm.ctrl.sent;
	// the others are transmitted raw, best-effort and unordered.
	sequenced bool
	// counted messages are wave-accounted like application messages:
	// MsgSentTo when emitted, MsgRecvdFrom after the handler has run.
	counted bool
	handle  func(p *Proc, m message)
}

// protocols is indexed by -tag. It is filled in init because handlers emit
// and emit reads the table.
var protocols [1 - tagTelemetry]protocol

func init() {
	protocols = [...]protocol{
		-tagProbe:       {sequenced: true, handle: (*Proc).handleProbe},
		-tagReply:       {sequenced: true, handle: (*Proc).handleReply},
		-tagTerminate:   {sequenced: true, handle: (*Proc).handleTerminate},
		-tagAbort:       {sequenced: true, handle: (*Proc).handleAbort},
		-tagAck:         {handle: func(*Proc, message) {}}, // the header's ack is the message (receive)
		-tagHeartbeat:   {handle: (*Proc).handleHeartbeat},
		-tagRankDead:    {sequenced: true, handle: (*Proc).handleRankDead},
		-tagPrune:       {sequenced: true, handle: (*Proc).handlePrune},
		-tagStealReq:    {sequenced: true, counted: true, handle: (*Proc).handleStealReq},
		-tagStealResp:   {sequenced: true, counted: true, handle: (*Proc).handleStealResp},
		-tagStealAccept: {sequenced: true, counted: true, handle: (*Proc).handleStealAccept},
		-tagStealCommit: {sequenced: true, counted: true, handle: (*Proc).handleStealCommit},
		-tagStealAbort:  {sequenced: true, counted: true, handle: (*Proc).handleStealAbort},
		-tagTelemetry:   {handle: (*Proc).handleTelemetry},
	}
}

// emit sends one control message the way its table entry says. Safe from any
// goroutine (post locks per link).
func (p *Proc) emit(dst, tag int, a, b, ep int64, payload []byte) {
	m := message{src: p.rank, tag: tag, a: a, b: b, ep: ep, payload: payload}
	pr := &protocols[-tag]
	if !pr.sequenced {
		p.transmit(dst, m)
		return
	}
	if pr.counted {
		p.det.MsgSentTo(dst)
	}
	if mx := p.world.mx; mx != nil {
		mx.ctrl.Inc(p.rank)
	}
	p.post(dst, m)
}

// broadcast emits one message to every rank except this one, skip (-1 for
// none) and the ranks marked in dead. dead is the rx-private membership
// view; callers outside the receive lock pass nil and reach every rank.
func (p *Proc) broadcast(dead []bool, skip, tag int, a, b, ep int64, payload []byte) {
	for dst := range p.world.procs {
		if dst != p.rank && dst != skip && (dead == nil || !dead[dst]) {
			p.emit(dst, tag, a, b, ep, payload)
		}
	}
}

// Abort broadcasts an abort notification with a reason to every other rank
// over the reliable links. Safe from any goroutine.
func (p *Proc) Abort(reason string) {
	p.broadcast(nil, -1, tagAbort, 0, 0, 0, []byte(reason))
}

func (p *Proc) handleAbort(m message) {
	if p.onAbort != nil {
		p.onAbort(m.src, string(m.payload))
	}
}
