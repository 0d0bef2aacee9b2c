package comm

// SetTelemetryHandler installs the receiver for telemetry frames shipped via
// SendTelemetry (the cluster metric plane's aggregation sink, normally only
// installed on rank 0). The handler runs under the rank's receive lock, on
// the goroutine that delivered the frame, and must stay cheap. Must be called before Start.
func (p *Proc) SetTelemetryHandler(h func(src int, payload []byte)) { p.telemetryH = h }

// SendTelemetry ships one telemetry frame to rank dst. Telemetry is
// deliberately outside every guarantee the data plane pays for: frames are
// unsequenced (no retransmit state, no Drain involvement — like heartbeats),
// uncounted by the termination wave (a run must terminate identically with
// telemetry on or off), and best-effort (a frame lost to a fault plan or a
// down connection is simply a missing interval; the stream carries cumulative
// values, so the next frame covers the gap). Under a duplicating fault plan a
// frame can arrive twice — receivers deduplicate by frame sequence number.
// Traffic to or from a fenced rank is dropped. Ownership of payload passes
// with the call. Safe from any goroutine.
func (p *Proc) SendTelemetry(dst int, payload []byte) {
	w := p.world
	if w.closed.Load() || w.wireDead(p.rank, dst) {
		return
	}
	if m := w.mx; m != nil {
		m.telemetryFrames.Inc(p.rank)
		m.telemetryBytes.Add(p.rank, uint64(len(payload)))
	}
	p.emit(dst, tagTelemetry, 0, 0, 0, payload)
}

// handleTelemetry delivers a frame to the telemetry sink. Like heartbeats the
// frame is observability traffic, not work, and stays outside the wave.
func (p *Proc) handleTelemetry(m message) {
	if p.telemetryH != nil {
		p.telemetryH(m.src, m.payload)
	}
}
