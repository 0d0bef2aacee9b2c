package comm

// AckDelay is the longest an owed ack waits for a carrier (ackDelay).
const AckDelay = ackDelay

// FaultWireOver returns tr behind the fault decorator with plan fp, outside
// any World, for tests of the Transport contract. Its cuts report to the
// events callback Start is given.
func FaultWireOver(tr Transport, fp FaultPlan) Transport {
	return startedFaultWire{&faultWire{Transport: tr, w: &World{}, plan: fp, rng: fp.Seed}}
}

type startedFaultWire struct{ *faultWire }

func (f startedFaultWire) Start(deliver func([]byte), events func(PeerEvent)) error {
	f.events = events
	return f.Transport.Start(deliver, events)
}
