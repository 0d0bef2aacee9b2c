package comm

// FaultWireOver returns tr behind the fault decorator with plan fp, outside
// any World, for tests of the Transport contract.
func FaultWireOver(tr Transport, fp FaultPlan) Transport {
	return &faultWire{Transport: tr, w: &World{}, plan: fp, rng: fp.Seed}
}
